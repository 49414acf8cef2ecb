//! Reproducible random-number streams.
//!
//! Every stochastic component of a simulation draws from a [`SimRng`], a
//! seeded PRNG with support for deriving independent child streams. Deriving
//! streams (rather than sharing one generator) keeps components statistically
//! independent and makes output insensitive to the order in which components
//! happen to draw.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna), seeded
//! through SplitMix64 — no external dependencies, so the simulator builds in
//! fully offline environments, and the stream for a given seed is stable
//! across toolchains.

/// A seeded random-number generator for simulation use.
///
/// Wraps a xoshiro256++ state and adds stream derivation
/// ([`SimRng::derive`]) plus the variate helpers the RSIN models need.
///
/// # Examples
///
/// ```
/// use rsin_des::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
///
/// let mut arrivals = a.derive(0);
/// let mut services = a.derive(1);
/// // Child streams are decorrelated from each other and the parent.
/// let _ = (arrivals.uniform(), services.uniform());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Expand the seed into the 256-bit state with SplitMix64, per the
        // xoshiro authors' recommendation; the state is never all-zero
        // because splitmix64 is a bijection walked from distinct inputs.
        let mut z = splitmix64(seed);
        let mut state = [0u64; 4];
        for s in &mut state {
            z = splitmix64(z);
            *s = z;
        }
        SimRng { state, seed }
    }

    /// The seed this generator was created with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `stream`.
    ///
    /// Children with distinct `stream` values (or from parents with distinct
    /// seeds) are statistically independent for simulation purposes. The
    /// derivation is deterministic: same parent seed + same stream id gives
    /// the same child.
    #[must_use]
    pub fn derive(&self, stream: u64) -> SimRng {
        // Mix seed and stream id through splitmix64 twice so that adjacent
        // (seed, stream) pairs land far apart in the seed space.
        let mixed = splitmix64(splitmix64(self.seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_add(stream));
        SimRng::new(mixed)
    }

    /// The next 64 random bits (xoshiro256++ step).
    #[allow(clippy::should_implement_trait)]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// A uniform variate in `[0, 1)`.
    #[must_use]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-uniform construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform variate in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is not finite.
    #[must_use]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.uniform()
    }

    /// An exponential variate with the given `rate` (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[must_use]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be positive, got {rate}"
        );
        // Inverse transform; 1-U avoids ln(0).
        -(1.0 - self.uniform()).ln() / rate
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot draw an index from an empty range");
        // Lemire's multiply-shift: maps 64 random bits onto [0, n) with
        // bias below 2⁻⁶⁴·n — immaterial at simulation scales.
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// A Bernoulli trial with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.uniform() < p
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// SplitMix64 step: a bijective avalanche mixer used for seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let parent = SimRng::new(99);
        let mut c1 = parent.derive(0);
        let mut c1_again = parent.derive(0);
        let mut c2 = parent.derive(1);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = SimRng::new(5);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "empirical mean {mean} vs expected {}",
            1.0 / rate
        );
    }

    #[test]
    fn uniform_in_respects_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.uniform_in(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::new(23);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_covers_range() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = SimRng::new(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // 13 bytes from two 64-bit draws; overwhelmingly unlikely all zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = SimRng::new(0);
        let _ = rng.exponential(0.0);
    }
}
