//! Packed `u64` bit-lane primitives for gate-level network emulation.
//!
//! The paper's interconnection hardware is a sea of identical one-bit cells:
//! the crossbar's Table-I cell is 11 gates plus a latch, the Omega switch box
//! is five control signals. Evaluating those cells one `bool` at a time wastes
//! 63/64ths of every ALU operation. This crate provides the word-level
//! building blocks that let the resolvers in `rsin-xbar` and `rsin-omega`
//! evaluate 64 cells or switch boxes per instruction:
//!
//! - tail-masked bit vectors (`words_for`, `tail_mask`, `pack_bools`,
//!   [`copy_lanes`]) so networks whose width is not a multiple of 64 keep
//!   garbage lanes zeroed;
//! - parallel-prefix (Kogge–Stone-style) arbitration chains
//!   ([`prefix_or_up`], [`lowest_set`], [`rotating_grant`]) replacing
//!   per-cell daisy-chain sweeps with log-depth carry lookahead;
//! - wiring-permutation shuffles ([`or_pairs_compress`], [`tile_double`],
//!   [`swap_or`]) that evaluate a whole Omega/Cube stage of 2x2 boxes as a
//!   handful of mask-and-shift operations.
//!
//! # Lane-layout invariant
//!
//! Every multi-word vector packs bit `i` into word `i / 64`, bit `i % 64`
//! (little-endian lanes). All helpers preserve the invariant that bits at or
//! above the logical length — the *tail* of the last word — are zero, and
//! they assume their inputs honour it. Callers that build vectors by hand
//! must finish with `words[last] &= tail_mask(len)`.

#![warn(missing_docs)]

/// Number of cell lanes carried per machine word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `bits` lanes.
#[inline]
pub const fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// Mask of valid lanes in the **last** word of a `bits`-lane vector.
///
/// All-ones when `bits` is a positive multiple of 64; zero when `bits == 0`.
#[inline]
pub const fn tail_mask(bits: usize) -> u64 {
    if bits == 0 {
        0
    } else if bits.is_multiple_of(WORD_BITS) {
        u64::MAX
    } else {
        (1u64 << (bits % WORD_BITS)) - 1
    }
}

/// Packs a `bool` slice into `words`, clearing it first.
///
/// The destination is resized to `words_for(bools.len())`; tail lanes are
/// zero by construction.
#[inline]
pub fn pack_bools(bools: &[bool], words: &mut Vec<u64>) {
    words.clear();
    words.reserve(words_for(bools.len()));
    // Branchless accumulation (`b as u64` instead of a per-lane test) so the
    // compiler can unroll and vectorize the gather; this runs on every
    // request cycle of the crossbar simulators.
    words.extend(bools.chunks(WORD_BITS).map(|chunk| {
        let mut w = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            w |= u64::from(b) << i;
        }
        w
    }));
}

/// Copies lanes `start .. start + len` of `src` into lanes `0 .. len` of
/// `dst`, which is resized to `words_for(len)` with a clean tail.
///
/// Slices a per-partition mask out of a whole-system vector when partition
/// widths do not divide 64, so the slice may straddle words.
///
/// # Panics
///
/// Panics if `start + len` exceeds the lanes `src` holds.
#[inline]
pub fn copy_lanes(src: &[u64], start: usize, len: usize, dst: &mut Vec<u64>) {
    assert!(start + len <= src.len() * WORD_BITS, "lanes out of range");
    dst.clear();
    let (first, shift) = (start / WORD_BITS, start % WORD_BITS);
    dst.extend((0..words_for(len)).map(|i| {
        let lo = src[first + i] >> shift;
        match src.get(first + i + 1) {
            Some(&hi) if shift != 0 => lo | hi << (WORD_BITS - shift),
            _ => lo,
        }
    }));
    if let Some(last) = dst.last_mut() {
        *last &= tail_mask(len);
    }
}

/// Reads lane `i` of a packed vector.
#[inline]
pub fn test_bit(words: &[u64], i: usize) -> bool {
    words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
}

/// Sets lane `i` of a packed vector.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
}

/// Clears lane `i` of a packed vector.
#[inline]
pub fn clear_bit(words: &mut [u64], i: usize) {
    words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
}

/// Population count across all words.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Upward Kogge–Stone prefix-OR: bit `i` of the result is the OR of bits
/// `0..=i` of the input, computed in six log-depth doubling steps.
///
/// This is the software transliteration of a carry-lookahead chain: each
/// doubling step halves the remaining chain length exactly like the
/// `(g, p)` tree of a Kogge–Stone adder.
#[inline]
pub fn prefix_or_up(x: u64) -> u64 {
    let mut p = x;
    p |= p << 1;
    p |= p << 2;
    p |= p << 4;
    p |= p << 8;
    p |= p << 16;
    p |= p << 32;
    p
}

/// Isolates the lowest set bit of `x` (zero if `x == 0`).
///
/// `x & x.wrapping_neg()` is the closed form of the parallel-prefix grant
/// chain `x & !(prefix_or_up(x) << 1)`: two's-complement negation *is* a
/// carry chain, and hardware resolves it with the same Kogge–Stone lookahead
/// tree. A unit test asserts the two forms agree on random words.
#[inline]
pub fn lowest_set(x: u64) -> u64 {
    x & x.wrapping_neg()
}

/// Index of the lowest set lane across all words, or `None` if empty.
#[inline]
pub fn first_set(words: &[u64]) -> Option<usize> {
    for (w, &word) in words.iter().enumerate() {
        if word != 0 {
            return Some(w * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Index of the lowest set lane at position `start` or later.
#[inline]
pub fn first_set_at_or_after(words: &[u64], start: usize) -> Option<usize> {
    let w0 = start / WORD_BITS;
    if w0 >= words.len() {
        return None;
    }
    let below = (1u64 << (start % WORD_BITS)) - 1;
    let masked = words[w0] & !below;
    if masked != 0 {
        return Some(w0 * WORD_BITS + masked.trailing_zeros() as usize);
    }
    for (off, &word) in words[w0 + 1..].iter().enumerate() {
        if word != 0 {
            return Some((w0 + 1 + off) * WORD_BITS + word.trailing_zeros() as usize);
        }
    }
    None
}

/// Rotating-priority (token) grant: the lowest set lane at or after `token`,
/// wrapping to the lowest set lane overall when nothing is set above the
/// token. `None` when the vector is empty.
///
/// This replaces the O(n) rotating daisy chain of a round-robin arbiter with
/// two parallel-prefix selects, as in the reconfigurable round-robin arbiter
/// decomposition: grant = lsb(req & ~below(token)) else lsb(req).
#[inline]
pub fn rotating_grant(words: &[u64], token: usize) -> Option<usize> {
    first_set_at_or_after(words, token).or_else(|| first_set(words))
}

/// Doubled-mask rotate: the low `n` lanes of `mask` rotated right by `by`
/// positions (lane `by` of the input lands in lane 0 of the output). Lanes
/// at or above `n` must be zero and stay zero.
///
/// This is the doubled-vector trick of the parallel round-robin arbiter
/// decomposition: concatenating the mask with itself turns a circular
/// priority window into a linear one, so a single shift realigns the
/// rotation origin instead of an O(n) barrel sweep.
#[inline]
pub fn rotate_lanes_right(mask: u64, n: usize, by: usize) -> u64 {
    debug_assert!((1..=WORD_BITS).contains(&n), "lane count out of range");
    debug_assert_eq!(mask & !tail_mask(n), 0, "garbage above lane n");
    let by = by % n;
    let doubled = u128::from(mask) | (u128::from(mask) << n);
    ((doubled >> by) as u64) & tail_mask(n)
}

/// Rank of lane `who` among the set lanes of `mask` under the circular
/// priority order that starts at lane `token`: the number of set lanes
/// strictly between the token (inclusive) and `who` going upward with
/// wraparound. `who`'s own lane does not count toward its rank.
///
/// This is the round-robin arbiter's priority resolution as two constant-
/// depth word operations — a doubled-mask rotate to move the token to lane
/// 0 followed by a prefix popcount — replacing the O(n) circular-distance
/// scan a naive token arbiter performs per request.
#[inline]
pub fn rotating_rank(mask: u64, n: usize, token: usize, who: usize) -> u32 {
    debug_assert!(who < n, "who out of range");
    let token = token % n;
    let rot = rotate_lanes_right(mask, n, token);
    let pos = (who + n - token) % n;
    (rot & ((1u64 << pos) - 1)).count_ones()
}

/// Index of the `n`-th (0-based) set lane, or `None` if fewer than `n + 1`
/// lanes are set. Used by random arbitration to pick the winner drawn by the
/// RNG without materialising a candidate list.
#[inline]
pub fn select_nth_set(words: &[u64], mut n: usize) -> Option<usize> {
    for (w, &word) in words.iter().enumerate() {
        let pop = word.count_ones() as usize;
        if n < pop {
            // Drop the n lowest set bits one at a time (n < 64, usually tiny).
            let mut v = word;
            for _ in 0..n {
                v &= v - 1;
            }
            return Some(w * WORD_BITS + v.trailing_zeros() as usize);
        }
        n -= pop;
    }
    None
}

const EVEN_1: u64 = 0x5555_5555_5555_5555;
const EVEN_2: u64 = 0x3333_3333_3333_3333;
const EVEN_4: u64 = 0x0f0f_0f0f_0f0f_0f0f;
const EVEN_8: u64 = 0x00ff_00ff_00ff_00ff;
const EVEN_16: u64 = 0x0000_ffff_0000_ffff;
const EVEN_32: u64 = 0x0000_0000_ffff_ffff;

/// Compresses the even-indexed bits of `x` into the low 32 bits
/// (bit `2i` of the input becomes bit `i` of the output).
#[inline]
fn compress_even(x: u64) -> u64 {
    let mut t = x & EVEN_1;
    t = (t | (t >> 1)) & EVEN_2;
    t = (t | (t >> 2)) & EVEN_4;
    t = (t | (t >> 4)) & EVEN_8;
    t = (t | (t >> 8)) & EVEN_16;
    t = (t | (t >> 16)) & EVEN_32;
    t
}

/// Pairwise-OR compression: output lane `b` is `src[2b] | src[2b+1]`, for
/// `b < pair_count`. `dst` is resized to `words_for(pair_count)`.
///
/// This evaluates one Omega stage of 2x2 switch boxes in a handful of
/// mask-and-shift ops: a box's output-side reachability is the OR of its two
/// outgoing wires, and Omega box `b` owns wires `2b` and `2b+1`.
pub fn or_pairs_compress(src: &[u64], pair_count: usize, dst: &mut Vec<u64>) {
    dst.clear();
    dst.resize(words_for(pair_count), 0);
    // Each source word yields 32 output lanes.
    for (s, &word) in src[..words_for(pair_count * 2)].iter().enumerate() {
        let pairs = compress_even(word | (word >> 1));
        let out_bit = s * 32;
        dst[out_bit / WORD_BITS] |= pairs << (out_bit % WORD_BITS);
    }
    if let Some(last) = dst.last_mut() {
        *last &= tail_mask(pair_count);
    }
}

/// Tiles a `half_bits`-lane vector twice: output lane `w` (for
/// `w < 2 * half_bits`) is `src[w % half_bits]`. `half_bits` must be a power
/// of two. `dst` is resized to `words_for(2 * half_bits)`.
///
/// Inverse shuffle of the Omega wiring: the box a wire enters at a stage is
/// `wire mod N/2`, so duplicating the per-box vector yields the per-input-wire
/// vector for the next stage up.
pub fn tile_double(src: &[u64], half_bits: usize, dst: &mut Vec<u64>) {
    debug_assert!(half_bits.is_power_of_two());
    dst.clear();
    if half_bits >= WORD_BITS {
        // Whole-word tiling: the two halves are word-aligned copies.
        dst.extend_from_slice(&src[..half_bits / WORD_BITS]);
        dst.extend_from_slice(&src[..half_bits / WORD_BITS]);
    } else {
        // Sub-word tiling: 2 * half_bits <= 64, one output word.
        let pattern = src[0] & tail_mask(half_bits);
        dst.push((pattern | (pattern << half_bits)) & tail_mask(2 * half_bits));
    }
}

/// Butterfly OR: output lane `w` is `src[w] | src[w ^ dist]`, with `dist` a
/// power of two. `dst` is resized to `src.len()`.
///
/// Evaluates one Cube stage: the two outputs of the box a wire enters differ
/// only in bit `log2(dist)`, so OR-ing each lane with its butterfly partner
/// gives per-input-wire reachability for the whole stage at once.
pub fn swap_or(src: &[u64], dist: usize, dst: &mut Vec<u64>) {
    debug_assert!(dist.is_power_of_two());
    dst.clear();
    if dist >= WORD_BITS {
        // Partners live in different words at word-distance dist/64.
        let wd = dist / WORD_BITS;
        dst.resize(src.len(), 0);
        for w in 0..src.len() {
            dst[w] = src[w] | src[w ^ wd];
        }
    } else {
        // In-word butterfly via delta swap with an alternating mask.
        let m = swap_mask(dist);
        for &word in src {
            dst.push(word | ((word >> dist) & m) | ((word & m) << dist));
        }
    }
}

/// Alternating mask of `dist` low bits per `2 * dist` group — the delta-swap
/// mask selecting the "low partner" lanes for an in-word butterfly.
#[inline]
fn swap_mask(dist: usize) -> u64 {
    match dist {
        1 => EVEN_1,
        2 => EVEN_2,
        4 => EVEN_4,
        8 => EVEN_8,
        16 => EVEN_16,
        32 => EVEN_32,
        _ => unreachable!("dist must be a power of two below 64"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG matching the fuzz idiom used across the workspace.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }
        fn word(&mut self) -> u64 {
            (self.next() as u64) << 32 | self.next() as u64
        }
    }

    fn random_vec(rng: &mut Lcg, bits: usize, density_num: u32, density_den: u32) -> Vec<u64> {
        let mut v = vec![0u64; words_for(bits)];
        for i in 0..bits {
            if rng.next() % density_den < density_num {
                set_bit(&mut v, i);
            }
        }
        v
    }

    #[test]
    fn rotate_lanes_right_matches_scalar_rotation() {
        let mut rng = Lcg(0x60d);
        for &n in &[1usize, 2, 3, 7, 8, 31, 32, 33, 63, 64] {
            for _ in 0..40 {
                let mask = rng.word() & tail_mask(n);
                let by = rng.next() as usize % n;
                let rot = rotate_lanes_right(mask, n, by);
                for lane in 0..n {
                    let want = mask & (1u64 << ((lane + by) % n)) != 0;
                    assert_eq!(rot & (1u64 << lane) != 0, want, "n {n} by {by} lane {lane}");
                }
                assert_eq!(rot & !tail_mask(n), 0, "tail must stay clean");
            }
        }
    }

    #[test]
    fn rotating_rank_matches_circular_distance_scan() {
        let mut rng = Lcg(0xc1c);
        for &n in &[1usize, 2, 4, 5, 16, 33, 64] {
            for _ in 0..60 {
                let mask = rng.word() & tail_mask(n);
                let token = rng.next() as usize % n;
                let who = rng.next() as usize % n;
                // The naive token arbiter's scan: requesters circularly
                // between the token and `who` outrank it.
                let pos = (who + n - token) % n;
                let naive = (0..n)
                    .filter(|&j| mask & (1u64 << j) != 0 && (j + n - token) % n < pos)
                    .count() as u32;
                assert_eq!(
                    rotating_rank(mask, n, token, who),
                    naive,
                    "n {n} token {token} who {who} mask {mask:#x}"
                );
            }
        }
    }

    #[test]
    fn words_and_tail_masks() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(130), 3);
        assert_eq!(tail_mask(0), 0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(64), u64::MAX);
        assert_eq!(tail_mask(65), 1);
        assert_eq!(tail_mask(70), 0x3f);
    }

    #[test]
    fn pack_and_bit_ops_round_trip() {
        let mut rng = Lcg(0xbeef);
        for &n in &[1usize, 7, 63, 64, 65, 100, 128, 130] {
            let bools: Vec<bool> = (0..n).map(|_| rng.next().is_multiple_of(2)).collect();
            let mut words = Vec::new();
            pack_bools(&bools, &mut words);
            assert_eq!(words.len(), words_for(n));
            for (i, &b) in bools.iter().enumerate() {
                assert_eq!(test_bit(&words, i), b);
            }
            assert_eq!(count_ones(&words), bools.iter().filter(|&&b| b).count());
            if n % WORD_BITS != 0 {
                assert_eq!(
                    words[n / WORD_BITS] & !tail_mask(n),
                    0,
                    "tail must be clean"
                );
            }
        }
    }

    #[test]
    fn copy_lanes_matches_scalar_scan() {
        let mut rng = Lcg(0xc0b1);
        for len in 1..=130usize {
            for start in [0usize, 1, 31, 63, 64, 65, 100, 127, 190] {
                let spare = rng.next() as usize % 70;
                let src = random_vec(&mut rng, start + len + spare, 1, 2);
                // Stale, dirty contents must not leak into the copy.
                let mut dst = vec![u64::MAX; 4];
                copy_lanes(&src, start, len, &mut dst);
                assert_eq!(dst.len(), words_for(len), "len {len} start {start}");
                for i in 0..len {
                    assert_eq!(
                        test_bit(&dst, i),
                        test_bit(&src, start + i),
                        "len {len} start {start} lane {i}"
                    );
                }
                assert_eq!(dst[dst.len() - 1] & !tail_mask(len), 0, "tail clean");
            }
        }
    }

    #[test]
    fn lowest_set_equals_prefix_form() {
        let mut rng = Lcg(0x1234_5678);
        for _ in 0..2000 {
            let x = rng.word();
            let prefix_form = x & !(prefix_or_up(x) << 1);
            assert_eq!(lowest_set(x), prefix_form, "x = {x:#x}");
        }
        assert_eq!(lowest_set(0), 0);
        assert_eq!(prefix_or_up(0), 0);
        assert_eq!(prefix_or_up(1), u64::MAX);
    }

    #[test]
    fn first_set_and_rotating_grant_match_scan() {
        let mut rng = Lcg(0xfeed);
        for &n in &[1usize, 5, 64, 65, 127, 200] {
            for _ in 0..200 {
                let v = random_vec(&mut rng, n, 1, 5);
                let naive_first = (0..n).find(|&i| test_bit(&v, i));
                assert_eq!(first_set(&v), naive_first);
                for _ in 0..4 {
                    let start = rng.next() as usize % (n + 2);
                    let naive_after = (start..n).find(|&i| test_bit(&v, i));
                    assert_eq!(
                        first_set_at_or_after(&v, start),
                        naive_after,
                        "start {start}"
                    );
                    let naive_rot = naive_after.or(naive_first);
                    assert_eq!(rotating_grant(&v, start), naive_rot);
                }
            }
        }
    }

    #[test]
    fn select_nth_set_matches_candidate_list() {
        let mut rng = Lcg(0xabcd);
        for &n in &[1usize, 10, 64, 100, 190] {
            for _ in 0..200 {
                let v = random_vec(&mut rng, n, 1, 3);
                let candidates: Vec<usize> = (0..n).filter(|&i| test_bit(&v, i)).collect();
                for k in 0..candidates.len() + 2 {
                    assert_eq!(select_nth_set(&v, k), candidates.get(k).copied());
                }
            }
        }
    }

    #[test]
    fn or_pairs_compress_matches_scalar() {
        let mut rng = Lcg(0x03e6);
        for &pairs in &[1usize, 2, 16, 32, 33, 64, 65, 100] {
            for _ in 0..100 {
                let src = random_vec(&mut rng, pairs * 2, 1, 3);
                let mut dst = Vec::new();
                or_pairs_compress(&src, pairs, &mut dst);
                assert_eq!(dst.len(), words_for(pairs));
                for b in 0..pairs {
                    let want = test_bit(&src, 2 * b) || test_bit(&src, 2 * b + 1);
                    assert_eq!(test_bit(&dst, b), want, "pairs {pairs} b {b}");
                }
                if pairs % WORD_BITS != 0 {
                    assert_eq!(dst[pairs / WORD_BITS] & !tail_mask(pairs), 0);
                }
            }
        }
    }

    #[test]
    fn tile_double_matches_scalar() {
        let mut rng = Lcg(0x7117);
        for &half in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
            for _ in 0..50 {
                let src = random_vec(&mut rng, half, 1, 2);
                let mut dst = Vec::new();
                tile_double(&src, half, &mut dst);
                assert_eq!(dst.len(), words_for(2 * half));
                for w in 0..2 * half {
                    assert_eq!(
                        test_bit(&dst, w),
                        test_bit(&src, w % half),
                        "half {half} w {w}"
                    );
                }
                if (2 * half) % WORD_BITS != 0 {
                    assert_eq!(dst[(2 * half) / WORD_BITS] & !tail_mask(2 * half), 0);
                }
            }
        }
    }

    #[test]
    fn swap_or_matches_scalar() {
        let mut rng = Lcg(0x5a5a);
        for &n in &[2usize, 4, 8, 16, 32, 64, 128, 256] {
            let mut dist = 1;
            while dist < n {
                for _ in 0..30 {
                    let src = random_vec(&mut rng, n, 1, 2);
                    let mut dst = Vec::new();
                    swap_or(&src, dist, &mut dst);
                    assert_eq!(dst.len(), src.len());
                    for w in 0..n {
                        let want = test_bit(&src, w) || test_bit(&src, w ^ dist);
                        assert_eq!(test_bit(&dst, w), want, "n {n} dist {dist} w {w}");
                    }
                }
                dist *= 2;
            }
        }
    }
}
