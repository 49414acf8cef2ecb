//! Bit-sliced compilation of the Table-I crossbar: whole rows of cells
//! evaluated as branchless `u64` lane operations.
//!
//! [`CrossbarFabric`](crate::CrossbarFabric) sweeps the request wave cell by
//! cell. Under the **held-column contract** the Table-I transition function
//! admits a closed form over an entire row at once. The contract is the one
//! a Section IV resource controller keeps: it drives `Y_{0,j} = 1` only
//! while bus `j` is idle, so no column latched by an earlier cycle is ever
//! advertised as available. For a requesting row with failed lanes `F` and
//! incoming availability lanes `A`:
//!
//! * *transparent* (failed) cells forward both signals unchanged, so the
//!   cells that can stop the wave are `A & !F` — the **candidate** lanes (a
//!   latched cell would stop it too, but the contract keeps latched lanes
//!   out of `A`);
//! * the wave latches at the *lowest* candidate lane — a parallel-prefix
//!   select, [`lowest_set`], replacing the O(m) daisy chain — and the new
//!   latch drives `Y' = 0`, clearing exactly that one lane of `A`;
//! * every other row forwards `A` unchanged (an idle row's latches sit on
//!   lanes the contract already holds at zero), so the cycle visits only
//!   the requesting rows.
//!
//! Debug builds check the contract at the start of every wave; release
//! builds pay nothing for it. The evaluator is fault-aware by construction:
//! a degraded mask simply sets lanes in `F`, which removes them from the
//! candidate set without branching. Tail lanes (columns
//! `m..64*ceil(m/64)`) are kept zero in every vector — the lane-layout
//! invariant of `rsin-bitslice`.

use crate::cell::{REQUEST_GATE_DELAY, RESET_GATE_DELAY};
use rsin_bitslice::{
    clear_bit, lowest_set, pack_bools, set_bit, tail_mask, test_bit, words_for, WORD_BITS,
};

/// A gate-level `p × m` crossbar with rows packed into `u64` lanes.
///
/// Equivalent to [`CrossbarFabric`](crate::CrossbarFabric) under the
/// held-column contract (no column latched by an earlier cycle is offered
/// as available): same constructor, same cycle API, same grants in the
/// same order, bit-for-bit — property tests fuzz the two against each
/// other, including stuck-open faults and widths that are not multiples of
/// 64. Debug builds panic when a cycle breaks the contract.
///
/// # Examples
///
/// ```
/// use rsin_xbar::BitFabric;
///
/// let mut fabric = BitFabric::new(2, 2);
/// let grants = fabric.request_cycle(&[true, true], &[true, true]);
/// assert_eq!(grants, vec![(0, 0), (1, 1)]);
/// ```
#[derive(Clone, Debug)]
pub struct BitFabric {
    p: usize,
    m: usize,
    /// Words per row (`ceil(m / 64)`).
    wpr: usize,
    /// Valid-lane mask for the last word of each row.
    tail: u64,
    /// Closed latches, `p` rows of `wpr` words.
    latch: Vec<u64>,
    /// Stuck-open cells, same layout.
    failed: Vec<u64>,
    /// Reusable buffers so steady-state cycles allocate nothing.
    scratch_avail: Vec<u64>,
    scratch_req: Vec<u64>,
}

impl BitFabric {
    /// Creates a fabric with `p` processor rows and `m` bus columns, all
    /// latches open.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `m == 0`.
    #[must_use]
    pub fn new(p: usize, m: usize) -> Self {
        assert!(p > 0 && m > 0, "fabric dimensions must be positive");
        let wpr = words_for(m);
        BitFabric {
            p,
            m,
            wpr,
            tail: tail_mask(m),
            latch: vec![0; p * wpr],
            failed: vec![0; p * wpr],
            scratch_avail: Vec::new(),
            scratch_req: Vec::new(),
        }
    }

    /// Processor rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.p
    }

    /// Bus columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.m
    }

    /// Whether processor `i` currently holds bus `j`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn is_connected(&self, i: usize, j: usize) -> bool {
        assert!(i < self.p && j < self.m, "cell index out of range");
        test_bit(&self.latch[i * self.wpr..], j)
    }

    /// Whether cell `(i, j)` is marked failed (stuck open).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn is_failed(&self, i: usize, j: usize) -> bool {
        assert!(i < self.p && j < self.m, "cell index out of range");
        test_bit(&self.failed[i * self.wpr..], j)
    }

    /// Marks cell `(i, j)` stuck open. Returns `true` if the cell was
    /// healthy. Fail-open: a currently held connection keeps blocking its
    /// column until reset, but the lane leaves the candidate set for good.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn fail_cell(&mut self, i: usize, j: usize) -> bool {
        assert!(i < self.p && j < self.m, "cell index out of range");
        let was = test_bit(&self.failed[i * self.wpr..], j);
        set_bit(&mut self.failed[i * self.wpr..], j);
        !was
    }

    /// Clears the failure mark on cell `(i, j)`. Returns `true` if the cell
    /// was failed.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn repair_cell(&mut self, i: usize, j: usize) -> bool {
        assert!(i < self.p && j < self.m, "cell index out of range");
        let was = test_bit(&self.failed[i * self.wpr..], j);
        clear_bit(&mut self.failed[i * self.wpr..], j);
        was
    }

    /// Runs one request cycle (allocating convenience wrapper).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths don't match the fabric dimensions, or
    /// (debug builds) if `available` offers a column some row holds.
    pub fn request_cycle(&mut self, requests: &[bool], available: &[bool]) -> Vec<(usize, usize)> {
        let mut grants = Vec::new();
        self.request_cycle_into(requests, available, &mut grants);
        grants
    }

    /// [`BitFabric::request_cycle`] writing the grants into a caller-provided
    /// buffer (cleared first): packs both vectors and runs
    /// [`BitFabric::request_cycle_packed`], so the held-column contract
    /// applies.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths don't match the fabric dimensions, or
    /// (debug builds) if `available` offers a column some row holds.
    pub fn request_cycle_into(
        &mut self,
        requests: &[bool],
        available: &[bool],
        grants: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(requests.len(), self.p, "requests length");
        assert_eq!(available.len(), self.m, "available length");
        let mut req = std::mem::take(&mut self.scratch_req);
        pack_bools(requests, &mut req);
        let mut avail = std::mem::take(&mut self.scratch_avail);
        pack_bools(available, &mut avail);
        self.request_cycle_packed(&req, &mut avail, grants);
        self.scratch_req = req;
        self.scratch_avail = avail;
    }

    /// The packed request wave: `req` holds `p` request lanes, `avail` holds
    /// `m` availability lanes and is updated in place to the wave's output
    /// (`Y_{p,j}`). Grants are written (cleared first) in row-major order,
    /// matching the naive sweep exactly.
    ///
    /// Held-column contract: no column latched by an earlier cycle may be
    /// set in `avail`. Each requesting row, in ascending order, then
    /// latches the lowest healthy lane still available and clears that one
    /// lane from `avail`.
    ///
    /// # Panics
    ///
    /// Panics if the word counts don't match the fabric dimensions, or
    /// (debug builds) if tail lanes are set or the contract is broken.
    pub fn request_cycle_packed(
        &mut self,
        req: &[u64],
        avail: &mut [u64],
        grants: &mut Vec<(usize, usize)>,
    ) {
        assert_eq!(req.len(), words_for(self.p), "request word count");
        assert_eq!(avail.len(), self.wpr, "availability word count");
        debug_assert_eq!(
            avail[self.wpr - 1] & !self.tail,
            0,
            "tail lanes must be zero"
        );
        #[cfg(debug_assertions)]
        for row in self.latch.chunks_exact(self.wpr) {
            for (a, latch) in avail.iter().zip(row) {
                debug_assert_eq!(
                    a & latch,
                    0,
                    "caller advertised a latched (held) column as available"
                );
            }
        }
        grants.clear();
        for (rw, &req_word) in req.iter().enumerate() {
            let mut active = req_word;
            while active != 0 {
                let i = rw * WORD_BITS + active.trailing_zeros() as usize;
                active &= active - 1;
                let base = i * self.wpr;
                for (w, a) in avail.iter_mut().enumerate() {
                    let cand = *a & !self.failed[base + w];
                    if cand != 0 {
                        let lane = lowest_set(cand);
                        self.latch[base + w] |= lane;
                        *a &= !lane;
                        grants.push((i, w * WORD_BITS + lane.trailing_zeros() as usize));
                        break;
                    }
                }
            }
        }
    }

    /// Runs one reset cycle: every processor `i` with `resets[i]` set
    /// relinquishes all its connections.
    ///
    /// # Panics
    ///
    /// Panics if `resets.len() != p`.
    pub fn reset_cycle(&mut self, resets: &[bool]) {
        assert_eq!(resets.len(), self.p, "resets length");
        for (i, &reset) in resets.iter().enumerate() {
            if reset {
                self.reset_row(i);
            }
        }
    }

    /// Runs the reset wave for processor row `i` alone: the wave forwards
    /// `X` through every cell (failed or not) and opens each latch it
    /// crosses, so the packed effect is zeroing the row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= p`.
    pub fn reset_row(&mut self, i: usize) {
        assert!(i < self.p, "row out of range");
        self.latch[i * self.wpr..(i + 1) * self.wpr].fill(0);
    }

    /// Worst-case request-cycle length in gate delays: `4(p + m)` — the
    /// emulated hardware's timing is unchanged by how we evaluate it.
    #[must_use]
    pub fn request_cycle_gate_delay(&self) -> u32 {
        REQUEST_GATE_DELAY * (self.p + self.m) as u32
    }

    /// Worst-case reset-cycle length in gate delays: `p + m`.
    #[must_use]
    pub fn reset_cycle_gate_delay(&self) -> u32 {
        RESET_GATE_DELAY * (self.p + self.m) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossbarFabric;

    #[test]
    fn mirrors_basic_fabric_behaviour() {
        let mut f = BitFabric::new(2, 1);
        assert_eq!(f.request_cycle(&[true, true], &[true]), vec![(0, 0)]);
        assert!(f.is_connected(0, 0));
        f.reset_row(0);
        assert!(!f.is_connected(0, 0));
        assert_eq!(f.request_cycle(&[false, true], &[true]), vec![(1, 0)]);
    }

    /// Offering a column that an earlier cycle latched breaks the
    /// held-column contract; debug builds catch it before the wave runs.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "latched (held) column")]
    fn advertising_a_held_column_panics_in_debug_builds() {
        let mut f = BitFabric::new(2, 1);
        assert_eq!(f.request_cycle(&[true, false], &[true]), vec![(0, 0)]);
        f.request_cycle(&[false, true], &[true]);
    }

    #[test]
    fn gate_delays_match_section_iv() {
        let f = BitFabric::new(16, 32);
        assert_eq!(f.request_cycle_gate_delay(), 4 * 48);
        assert_eq!(f.reset_cycle_gate_delay(), 48);
    }

    #[test]
    fn wide_row_grants_across_word_boundaries() {
        // 70 columns: only column 68 (word 1) is available.
        let mut f = BitFabric::new(1, 70);
        let mut avail = vec![false; 70];
        avail[68] = true;
        assert_eq!(f.request_cycle(&[true], &avail), vec![(0, 68)]);
        assert!(f.is_connected(0, 68));
    }

    /// Bit-for-bit fuzz against the cell-by-cell reference fabric: random
    /// interleavings of request cycles, row resets, cell failures and
    /// repairs, across widths spanning word boundaries and lane tails.
    /// Availability is drawn only on columns no row of the reference holds,
    /// the held-column contract of [`BitFabric::request_cycle_packed`].
    #[test]
    fn bitslice_matches_cell_sweep_exactly() {
        for &(p, m) in &[
            (5usize, 4usize),
            (4, 5),
            (3, 70),
            (2, 130),
            (66, 3),
            (16, 64),
        ] {
            let mut bits = BitFabric::new(p, m);
            let mut cells = CrossbarFabric::new(p, m);
            let mut state = 0x9e37_79b9_u64 ^ ((p as u64) << 32 | m as u64);
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            let mut g_bits = Vec::new();
            let mut g_cells = Vec::new();
            for round in 0..600 {
                match next() % 4 {
                    0 | 1 => {
                        let requests: Vec<bool> = (0..p).map(|_| next() % 2 == 0).collect();
                        let available: Vec<bool> = (0..m)
                            .map(|j| next() % 3 != 0 && !(0..p).any(|i| cells.is_connected(i, j)))
                            .collect();
                        bits.request_cycle_into(&requests, &available, &mut g_bits);
                        cells.request_cycle_into(&requests, &available, &mut g_cells);
                        assert_eq!(g_bits, g_cells, "{p}x{m} round {round}");
                    }
                    2 => {
                        let i = next() as usize % p;
                        bits.reset_row(i);
                        cells.reset_row(i);
                    }
                    _ => {
                        let (i, j) = (next() as usize % p, next() as usize % m);
                        if next() % 2 == 0 {
                            assert_eq!(bits.fail_cell(i, j), cells.fail_cell(i, j));
                        } else {
                            assert_eq!(bits.repair_cell(i, j), cells.repair_cell(i, j));
                        }
                    }
                }
                for i in 0..p {
                    for j in 0..m {
                        assert_eq!(
                            bits.is_connected(i, j),
                            cells.is_connected(i, j),
                            "latch ({i},{j}) diverged at {p}x{m} round {round}"
                        );
                        assert_eq!(bits.is_failed(i, j), cells.is_failed(i, j));
                    }
                }
            }
        }
    }
}
