//! The benchmark's own statistics: medians, the tail-percentile rule, a
//! log-linear latency histogram, open-loop latency accounting and the
//! capacity bisection.

use std::time::{Duration, Instant};

/// Median of a sample (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentiles a tail is reported at, highest first.
const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile of [`LADDER`], at most `cap`, that leaves at
/// least ten of `n` samples beyond it; `None` when even the median does
/// not (fewer than 20 samples).
pub fn tail_quantile(n: u64, cap: f64) -> Option<f64> {
    LADDER
        .into_iter()
        .filter(|&q| q <= cap)
        .find(|&q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// A tail reading: the value at percentile `q` of `n` samples. `q == 1.0`
/// marks a sample too small for any percentile, where the maximum stands
/// in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub n: u64,
}

impl Tail {
    /// `p99 (n=1234)` style label.
    pub fn label(&self) -> String {
        if self.q >= 1.0 {
            format!("max (n={})", self.n)
        } else {
            format!("p{} (n={})", trim(self.q * 100.0), self.n)
        }
    }
}

fn trim(x: f64) -> String {
    let s = format!("{x:.1}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}

/// The tail of a raw sample under the ten-beyond rule, capped at `cap`.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn sample_tail(values: &[f64], cap: f64) -> Tail {
    assert!(!values.is_empty(), "tail of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let n = v.len() as u64;
    match tail_quantile(n, cap) {
        Some(q) => Tail {
            q,
            value: v[rank(n, q) as usize - 1],
            n,
        },
        None => Tail {
            q: 1.0,
            value: v[v.len() - 1],
            n,
        },
    }
}

/// 1-based nearest rank of percentile `q` in `n` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Sub-buckets per power of two: values are kept to within 1/256 (~0.4%).
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear histogram of non-negative integer readings (nanoseconds):
/// exact below 256, then 256 buckets per power of two. Fixed memory however
/// many samples a saturated loop records.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) - SUB; // 0 .. SUB
        ((u64::from(shift) + 1) * SUB + sub) as usize
    }

    /// Smallest value that lands in bucket `i` (as `f64`: the bound past
    /// the last bucket is 2^64).
    fn lower(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = (i / SUB - 1) as i32;
        (SUB + i % SUB) as f64 * 2f64.powi(shift)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile, interpolated linearly by rank within its
    /// bucket.
    ///
    /// # Panics
    ///
    /// Panics on an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(self.n > 0, "quantile of an empty histogram");
        let want = rank(self.n, q);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= want {
                let within = (want - seen) as f64 / c as f64;
                let (lo, hi) = (Self::lower(i), Self::lower(i + 1));
                return lo + within * (hi - lo - 1.0);
            }
            seen += c;
        }
        unreachable!("rank {want} within {} samples", self.n)
    }

    /// The tail under the ten-beyond rule, capped at `cap`.
    pub fn tail(&self, cap: f64) -> Tail {
        let q = tail_quantile(self.n, cap).unwrap_or(1.0);
        Tail {
            q,
            value: self.quantile(q),
            n: self.n,
        }
    }
}

/// Open-loop accounting for one request: it was due at `due`, actually
/// written at `sent`, and answered at `answered`. Latency runs from the due
/// time, so a stalled generator charges its stall to every request it
/// delays; the lag (`sent - due`) is reported on its own.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub answered: Instant,
}

impl OpenLoopSample {
    pub fn latency(&self) -> Duration {
        self.answered.saturating_duration_since(self.due)
    }

    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Finds the highest rate in `[lo, hi]` at which `meets(rate)` holds, by
/// geometric bisection over `steps` probes. `lo` is assumed to meet the
/// limit; the result is the last rate that did.
pub fn bisect_capacity(lo: f64, hi: f64, steps: u32, mut meets: impl FnMut(f64) -> bool) -> f64 {
    assert!(0.0 < lo && lo < hi, "bisection needs 0 < lo < hi");
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..steps {
        let mid = (good * bad).sqrt();
        if meets(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_quantile(19, 0.99), None);
        assert_eq!(tail_quantile(20, 0.99), Some(0.5));
        assert_eq!(tail_quantile(40, 0.99), Some(0.75));
        assert_eq!(tail_quantile(100, 0.99), Some(0.9));
        assert_eq!(tail_quantile(200, 0.99), Some(0.95));
        assert_eq!(tail_quantile(999, 0.99), Some(0.95));
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(1_000_000, 0.99), Some(0.99));
        assert_eq!(tail_quantile(1_000_000, 1.0), Some(0.999));
    }

    #[test]
    fn sample_tail_reports_value_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = sample_tail(&v, 0.99);
        assert_eq!((t.q, t.value, t.n), (0.9, 90.0, 100));
        assert_eq!(t.label(), "p90 (n=100)");
        let small = sample_tail(&[5.0, 7.0, 6.0], 0.99);
        assert_eq!((small.q, small.value, small.n), (1.0, 7.0, 3));
        assert_eq!(small.label(), "max (n=3)");
    }

    #[test]
    fn histogram_quantiles_within_bucket_precision() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 10_000);
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 1.0 / 256.0,
                "q={q}: {got} vs {exact}"
            );
        }
        let t = h.tail(0.99);
        assert_eq!((t.q, t.n), (0.99, 10_000));
        // Exact region and bucket edges round-trip.
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1 << 40, 1 << 62] {
            let i = Hist::index(v);
            let v = v as f64;
            assert!(Hist::lower(i) <= v && v < Hist::lower(i + 1), "v={v}");
        }
        let mut exact = Hist::default();
        for v in [3u64, 1, 2] {
            exact.record(v);
        }
        assert_eq!(
            (
                exact.quantile(0.0),
                exact.quantile(0.5),
                exact.quantile(1.0)
            ),
            (1.0, 2.0, 3.0)
        );
        let mut m = Hist::default();
        m.record(7);
        m.merge(&h);
        assert_eq!(m.tail(0.99).n, 10_001);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        let t0 = Instant::now();
        let s = OpenLoopSample {
            due: t0,
            sent: t0 + Duration::from_micros(300), // generator ran late
            answered: t0 + Duration::from_micros(350),
        };
        // The 300 µs stall is charged to the request, not hidden.
        assert_eq!(s.latency(), Duration::from_micros(350));
        assert_eq!(s.lag(), Duration::from_micros(300));
    }

    #[test]
    fn capacity_bisection_is_stable_on_a_synthetic_curve() {
        // M/M/1-like p99 curve: p99(rate) = ln(100) / (cap - rate), limit 1 ms.
        let cap = 50_000.0_f64;
        let p99 = |rate: f64| {
            if rate >= cap {
                f64::INFINITY
            } else {
                100f64.ln() / (cap - rate)
            }
        };
        let meets = |rate: f64| p99(rate) <= 1e-3;
        let a = bisect_capacity(1_000.0, 200_000.0, 12, meets);
        let b = bisect_capacity(1_000.0, 200_000.0, 12, meets);
        assert_eq!(a.to_bits(), b.to_bits());
        let exact = cap - 100f64.ln() / 1e-3;
        assert!(a <= exact && a > exact * 0.99, "{a} vs {exact}");
    }
}
