//! Distributed request resolution in a multistage network (Section V,
//! Figs. 9–11).
//!
//! Scheduling intelligence lives in the 2×2 interchange boxes. The protocol
//! has two conceptually concurrent phases:
//!
//! * **Status phase** — each output port's resource controller reports
//!   whether ≥ 1 attached resource is free; every box ORs the availability
//!   reachable through each of its output ports (over *free* links) into its
//!   resource-availability registers and relays changes upstream. A
//!   processor only submits a request while its stage-0 box reports
//!   something reachable.
//! * **Request phase** — requests propagate one stage per step, each box
//!   switching a query toward an output port whose availability register is
//!   set. When a port is taken by a competing request (the register was
//!   outdated), the box emits a reject `J`; the request backtracks one
//!   stage, the failed port is marked, and an alternate port is tried —
//!   exactly the rerouting of the paper's Fig. 11 example. A request that
//!   backtracks out of the network is rejected to its processor and retried
//!   at the next status change.
//!
//! The algorithm is described in the paper for the Omega network but "is
//! applicable to other types of multistage networks as well"; this engine is
//! parameterized by the interstage [`Wiring`] and also implements the
//! indirect binary n-cube.
//!
//! Two fidelity knobs reproduce remarks from the paper:
//!
//! * [`Admission`] — lock-step simultaneous entry (clocked boxes, "may cause
//!   undue conflict") versus staggered entry (the randomized-delay remedy).
//! * [`StatusFreshness`] — whether availability registers refresh
//!   continuously during resolution or only at the epoch start ("requests
//!   continue to propagate in the presence of possibly outdated status
//!   information. This tends to lengthen the time to find a free resource").

use rsin_bitslice::{
    clear_bit, or_pairs_compress, set_bit, swap_or, tail_mask, tile_double, words_for,
};
use rsin_topology::{bit, shuffle, with_bit, Link};

/// A granted circuit: the processor, the output port reached, and the links
/// held until the end of transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    /// Requesting processor (input-port index).
    pub processor: usize,
    /// Output port whose resource pool accepted the task.
    pub port: usize,
    /// Links occupied by the circuit, one per stage.
    pub links: Vec<Link>,
}

/// Result of one resolution epoch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Resolution {
    /// Circuits established this epoch.
    pub granted: Vec<Circuit>,
    /// Processors whose requests were rejected (to be retried later).
    pub rejected: Vec<usize>,
    /// Processors that did not submit because no resource was reachable.
    pub not_submitted: Vec<usize>,
    /// Interchange-box visits accumulated by all requests (the paper's
    /// "boxes passed through" measure; Fig. 11 averages 3.5).
    pub box_visits: u64,
}

/// Admission discipline for a resolution epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// All requests advance in lock-step rounds (clocked boxes — the
    /// paper's default, which "may cause undue conflict").
    #[default]
    Simultaneous,
    /// Requests are admitted one at a time, each seeing fully settled
    /// status — the paper's randomized-delay remedy, as an ablation.
    Staggered,
}

/// How quickly status information reaches the availability registers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StatusFreshness {
    /// Registers recompute every round — the paper's continuous OR loop
    /// with negligible propagation delay (assumption (c)).
    #[default]
    Continuous,
    /// Registers are computed once when the epoch starts and go stale as
    /// competing requests claim links — the "outdated status information"
    /// regime, which forces extra rejects and reroutes.
    EpochStart,
}

/// Interstage wiring of the multistage network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Wiring {
    /// Perfect shuffle before every stage (Lawrie's Omega network).
    #[default]
    Omega,
    /// Stage `k` pairs wires differing in address bit `k` (Pease's indirect
    /// binary n-cube). Stages are traversed from the most significant bit so
    /// the final stage fixes the low-order bit of the port.
    Cube,
}

impl Wiring {
    /// For a wire entering stage `k` (of `n`), the two output wires of its
    /// box, indexed by output-port bit, plus the "straight" output bit (the
    /// one keeping the signal on its own side of the box).
    fn box_outputs(self, bits: u32, k: u32, wire_in: usize) -> ([usize; 2], usize) {
        match self {
            Wiring::Omega => {
                let s = shuffle(bits, wire_in);
                let boxid = s >> 1;
                ([boxid << 1, (boxid << 1) | 1], s & 1)
            }
            Wiring::Cube => {
                // Traverse bits MSB→LSB so that the last stage's wire pair
                // is adjacent, matching the Omega convention that the final
                // choice selects the port's low bit.
                let fix = bits - 1 - k;
                (
                    [with_bit(wire_in, fix, 0), with_bit(wire_in, fix, 1)],
                    bit(wire_in, fix),
                )
            }
        }
    }

    /// The interchange box (`0 .. N/2`) of stage `k` that output wire
    /// `wire_out` leaves through. Each box owns exactly two output wires.
    fn box_of_output(self, bits: u32, k: u32, wire_out: usize) -> usize {
        match self {
            Wiring::Omega => wire_out >> 1,
            Wiring::Cube => {
                // The pair differs in bit `fix`: drop that bit.
                let fix = bits - 1 - k;
                let low = wire_out & ((1usize << fix) - 1);
                (wire_out >> (fix + 1) << fix) | low
            }
        }
    }
}

/// The link/resource state of one multistage RSIN plus the resolution
/// engine.
///
/// # Examples
///
/// ```
/// use rsin_omega::{Admission, OmegaState};
///
/// // The paper's Fig. 11 scenario: an 8×8 network with one resource per
/// // port; R2, R3, R6, R7 are busy; P0, P3, P4, P5 request.
/// let mut net = OmegaState::new(8, 1)?;
/// for port in [2, 3, 6, 7] {
///     net.occupy_resource(port);
/// }
/// let res = net.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
/// assert_eq!(res.granted.len(), 4, "all four requests find resources");
/// # Ok::<(), rsin_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultistageState {
    bits: u32,
    size: usize,
    resources_per_port: u32,
    wiring: Wiring,
    freshness: StatusFreshness,
    /// Test oracle switch: run the status phase as the per-wire reference
    /// sweep instead of the bit-sliced stage compilation.
    #[cfg(test)]
    reference_oracle: bool,
    /// Words per packed wire row (`ceil(size / 64)`).
    words_per_row: usize,
    /// Link occupancy packed as `bits` rows of `words_per_row` lanes: bit
    /// `(stage, wire)` is held by an established circuit.
    link_busy: Vec<u64>,
    /// Busy resources per output port.
    busy_resources: Vec<u32>,
    /// Resource type hosted by each output port (all 0 when untyped).
    port_types: Vec<usize>,
    /// Output ports whose resource pool is offline (fault state).
    port_down: Vec<bool>,
    /// Packed status-phase source row: bit `w` set when port `w` is online
    /// with ≥ 1 free resource. Maintained incrementally by every
    /// occupy/release/fail/repair so the bit-sliced status phase starts from
    /// a ready-made lane vector.
    port_free: Vec<u64>,
    /// `box_down[stage * N/2 + box]`: failed interchange boxes. A failed box
    /// advertises no availability, so requests reroute around it; circuits
    /// already established through it complete normally (fail-open).
    box_down: Vec<bool>,
    /// The packed shadow of `box_down` on the wire axis: bit
    /// `(stage, wire_out)` set when the box owning `wire_out` is down —
    /// degraded fault masks clear whole lanes of the status wave.
    box_dead_wires: Vec<u64>,
    /// Packed per-type port masks (bit `w` set when `port_types[w] == t`),
    /// rebuilt by [`MultistageState::set_port_types`].
    type_masks: Vec<(usize, Vec<u64>)>,
    /// Reusable resolution scratch (claimed-link bits, per-type reachability
    /// tables, and flight arenas). Owned here so steady-state resolution does
    /// no per-round heap allocation; it carries no observable state between
    /// epochs.
    scratch: ResolverScratch,
}

/// Dense `rows × cols` bit matrix backed by `u64` words.
#[derive(Clone, Debug, Default)]
struct BitMatrix {
    words_per_row: usize,
    words: Vec<u64>,
}

impl BitMatrix {
    /// An empty matrix whose backing store can hold `words` words without
    /// reallocating, so a later [`BitMatrix::reset`] within that bound is
    /// allocation-free.
    fn with_word_capacity(words: usize) -> Self {
        BitMatrix {
            words_per_row: 0,
            words: Vec::with_capacity(words),
        }
    }

    /// Resizes to `rows × cols` and zeroes every bit, keeping the backing
    /// allocation.
    fn reset(&mut self, rows: usize, cols: usize) {
        self.words_per_row = cols.div_ceil(64);
        self.words.clear();
        self.words.resize(rows * self.words_per_row, 0);
    }

    #[inline]
    fn get(&self, row: usize, col: usize) -> bool {
        (self.words[row * self.words_per_row + col / 64] >> (col % 64)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    #[inline]
    fn clear_bit(&mut self, row: usize, col: usize) {
        self.words[row * self.words_per_row + col / 64] &= !(1 << (col % 64));
    }

    #[inline]
    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
    }
}

/// Per-epoch working storage for [`MultistageState::resolve_batch`].
#[derive(Clone, Debug, Default)]
struct ResolverScratch {
    /// `claimed[stage][wire]`: links claimed by in-flight requests.
    claimed: BitMatrix,
    /// One reachability table per resource type in flight, keyed by type.
    down: Vec<(usize, BitMatrix)>,
    /// Stage-wave lane buffers for the bit-sliced status phase.
    t_in: Vec<u64>,
    t_box: Vec<u64>,
    /// Duplicate-requester check buffer for `resolve_typed`.
    seen: Vec<bool>,
    /// Untyped→typed request adaptation buffer for `resolve`.
    typed: Vec<(usize, usize)>,
    /// Distinct requested types this epoch.
    types: Vec<usize>,
    /// In-flight request bookkeeping, plus the frame/link arenas the
    /// flights index with stride `stages` (a flight never holds more than
    /// one frame or link per stage).
    flights: Vec<Flight>,
    frames: Vec<Frame>,
    links: Vec<Link>,
}

impl ResolverScratch {
    /// Scratch pre-sized for an `N`-port, `bits`-stage network. Every buffer
    /// carries the capacity a full-occupancy single-type epoch needs, so even
    /// the *first* resolution after construction allocates nothing beyond the
    /// returned [`Resolution`] — that epoch is on the hot path of short-lived
    /// networks (one `down` table is pre-built; further resource types, a cold
    /// reconfiguration, grow the table on first use).
    fn preallocated(size: usize, bits: u32) -> Self {
        let n = bits as usize;
        let wpr = words_for(size);
        let mut down = Vec::with_capacity(4);
        down.push((0, BitMatrix::with_word_capacity((n + 1) * wpr)));
        ResolverScratch {
            claimed: BitMatrix::with_word_capacity(n * wpr),
            down,
            t_in: Vec::with_capacity(wpr),
            t_box: Vec::with_capacity(wpr),
            seen: Vec::with_capacity(size),
            typed: Vec::with_capacity(size),
            types: Vec::with_capacity(size),
            flights: Vec::with_capacity(size),
            frames: Vec::with_capacity(size * n),
            links: Vec::with_capacity(size * n),
        }
    }
}

/// The Omega-wired multistage RSIN state (the paper's primary subject).
pub type OmegaState = MultistageState;

#[derive(Clone, Copy, Debug)]
struct Frame {
    /// Input wire (boundary index) through which the box was entered.
    wire_in: usize,
    /// Output ports already tried (and failed) from this box.
    tried: [bool; 2],
}

/// One in-flight request. Its frames live at
/// `scratch.frames[index * stages ..][..frame_len]` and its claimed links at
/// `scratch.links[index * stages ..][..link_len]` — arena slots instead of
/// per-flight vectors, so an epoch allocates nothing for backtracking state.
#[derive(Clone, Copy, Debug)]
struct Flight {
    processor: usize,
    /// Requested resource type (0 in the untyped system).
    ty: usize,
    frame_len: usize,
    link_len: usize,
    state: FlightState,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FlightState {
    Active,
    Granted,
    Rejected,
}

impl MultistageState {
    /// Creates an idle Omega-wired `size × size` network with
    /// `resources_per_port` resources on every output port.
    ///
    /// # Errors
    ///
    /// [`rsin_topology::TopologyError`] unless `size` is a power of two ≥ 2.
    ///
    /// # Panics
    ///
    /// Panics if `resources_per_port == 0`.
    pub fn new(size: usize, resources_per_port: u32) -> Result<Self, rsin_topology::TopologyError> {
        Self::with_wiring(size, resources_per_port, Wiring::Omega)
    }

    /// Creates an idle indirect-binary-n-cube network.
    ///
    /// # Errors
    ///
    /// [`rsin_topology::TopologyError`] unless `size` is a power of two ≥ 2.
    ///
    /// # Panics
    ///
    /// Panics if `resources_per_port == 0`.
    pub fn new_cube(
        size: usize,
        resources_per_port: u32,
    ) -> Result<Self, rsin_topology::TopologyError> {
        Self::with_wiring(size, resources_per_port, Wiring::Cube)
    }

    /// Creates an idle network with explicit wiring.
    ///
    /// # Errors
    ///
    /// [`rsin_topology::TopologyError`] unless `size` is a power of two ≥ 2.
    ///
    /// # Panics
    ///
    /// Panics if `resources_per_port == 0`.
    pub fn with_wiring(
        size: usize,
        resources_per_port: u32,
        wiring: Wiring,
    ) -> Result<Self, rsin_topology::TopologyError> {
        assert!(
            resources_per_port > 0,
            "resources per port must be positive"
        );
        let bits = match rsin_topology::log2_exact(size) {
            Some(b) if b >= 1 => b,
            _ => return Err(rsin_topology::TopologyError::NotPowerOfTwo { size }),
        };
        let words_per_row = words_for(size);
        let mut all_ports = vec![u64::MAX; words_per_row];
        all_ports[words_per_row - 1] = tail_mask(size);
        Ok(MultistageState {
            bits,
            size,
            resources_per_port,
            wiring,
            freshness: StatusFreshness::Continuous,
            #[cfg(test)]
            reference_oracle: false,
            words_per_row,
            link_busy: vec![0; bits as usize * words_per_row],
            busy_resources: vec![0; size],
            port_types: vec![0; size],
            port_down: vec![false; size],
            port_free: all_ports.clone(),
            box_down: vec![false; bits as usize * (size / 2)],
            box_dead_wires: vec![0; bits as usize * words_per_row],
            // All ports host type 0 until `set_port_types` says otherwise.
            type_masks: vec![(0, all_ports)],
            scratch: ResolverScratch::preallocated(size, bits),
        })
    }

    /// Switches the status phase to the per-wire reference sweep, which
    /// re-derives port availability from the scalar fields instead of the
    /// packed `port_free` row.
    #[cfg(test)]
    pub(crate) fn use_reference_oracle(&mut self) {
        self.reference_oracle = true;
    }

    /// Refreshes `port`'s lane in the packed status-source row.
    #[inline]
    fn update_port_free(&mut self, port: usize) {
        if !self.port_down[port] && self.busy_resources[port] < self.resources_per_port {
            set_bit(&mut self.port_free, port);
        } else {
            clear_bit(&mut self.port_free, port);
        }
    }

    /// Flattened index of `box_id` in stage `stage`.
    #[inline]
    fn box_index(&self, stage: usize, box_id: usize) -> usize {
        stage * (self.size / 2) + box_id
    }

    /// Whether stage `k`'s link `wire` is held, read from the packed rows.
    #[inline]
    fn link_busy_at(&self, k: usize, wire: usize) -> bool {
        self.link_busy[k * self.words_per_row + wire / 64] & (1u64 << (wire % 64)) != 0
    }

    /// Rewrites the packed dead-wire lanes of (`stage`, `box_id`) after a
    /// box fault or repair (cold path).
    fn refresh_box_wires(&mut self, stage: u32, box_id: usize) {
        let dead = self.box_down[self.box_index(stage as usize, box_id)];
        let base = stage as usize * self.words_per_row;
        for w in 0..self.size {
            if self.wiring.box_of_output(self.bits, stage, w) == box_id {
                if dead {
                    set_bit(&mut self.box_dead_wires[base..], w);
                } else {
                    clear_bit(&mut self.box_dead_wires[base..], w);
                }
            }
        }
    }

    /// The packed port mask of resource type `ty`, if any port hosts it.
    #[inline]
    fn type_mask(&self, ty: usize) -> Option<&[u64]> {
        self.type_masks
            .iter()
            .find(|e| e.0 == ty)
            .map(|e| e.1.as_slice())
    }

    /// Rebuilds the packed per-type port masks from `port_types`.
    fn rebuild_type_masks(&mut self) {
        let wpr = self.words_per_row;
        self.type_masks.clear();
        for w in 0..self.size {
            let t = self.port_types[w];
            if let Some(pos) = self.type_masks.iter().position(|e| e.0 == t) {
                set_bit(&mut self.type_masks[pos].1, w);
            } else {
                let mut mask = vec![0u64; wpr];
                set_bit(&mut mask, w);
                self.type_masks.push((t, mask));
            }
        }
    }

    /// Sets how often availability registers refresh during resolution.
    pub fn set_status_freshness(&mut self, freshness: StatusFreshness) {
        self.freshness = freshness;
    }

    /// The interstage wiring.
    #[must_use]
    pub fn wiring(&self) -> Wiring {
        self.wiring
    }

    /// Assigns a resource type to every output port — the paper's
    /// multiple-resource-type extension ("the status signal S has to be
    /// sent for each type of resource"). Types are small dense integers.
    ///
    /// # Panics
    ///
    /// Panics if `types.len() != size`.
    pub fn set_port_types(&mut self, types: &[usize]) {
        assert_eq!(types.len(), self.size, "one type per output port");
        self.port_types.copy_from_slice(types);
        self.rebuild_type_masks();
    }

    /// The resource type hosted on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    #[must_use]
    pub fn port_type(&self, port: usize) -> usize {
        self.port_types[port]
    }

    /// Network size `N`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of box stages (`log2 N`).
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.bits
    }

    /// Resources carried by each output port.
    #[must_use]
    pub fn resources_per_port(&self) -> u32 {
        self.resources_per_port
    }

    /// Marks one resource on `port` busy (e.g. to set up a scenario, or at
    /// the end of a transmission).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or already fully busy.
    pub fn occupy_resource(&mut self, port: usize) {
        assert!(port < self.size, "port out of range");
        assert!(
            self.busy_resources[port] < self.resources_per_port,
            "port {port} has no free resource to occupy"
        );
        self.busy_resources[port] += 1;
        self.update_port_free(port);
    }

    /// Frees one resource on `port` (end of service).
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or has no busy resource.
    pub fn release_resource(&mut self, port: usize) {
        assert!(port < self.size, "port out of range");
        assert!(
            self.busy_resources[port] > 0,
            "port {port} has no busy resource"
        );
        self.busy_resources[port] -= 1;
        self.update_port_free(port);
    }

    /// Free resources currently on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    #[must_use]
    pub fn free_resources(&self, port: usize) -> u32 {
        self.resources_per_port - self.busy_resources[port]
    }

    /// Releases the links of an established circuit (end of transmission).
    /// The resource itself stays busy until
    /// [`MultistageState::release_resource`].
    ///
    /// # Panics
    ///
    /// Panics if any link of the circuit is not currently held.
    pub fn release_circuit(&mut self, circuit: &Circuit) {
        for l in &circuit.links {
            let idx = l.stage as usize * self.words_per_row + l.wire / 64;
            let lane = 1u64 << (l.wire % 64);
            assert!(
                self.link_busy[idx] & lane != 0,
                "releasing a link that is not held: {l:?}"
            );
            self.link_busy[idx] &= !lane;
        }
    }

    /// Whether a link is currently held by a circuit.
    #[must_use]
    pub fn link_is_busy(&self, link: Link) -> bool {
        self.link_busy_at(link.stage as usize, link.wire)
    }

    /// Takes the resource pool on `port` offline and clears its busy count
    /// (callers release the casualties' circuits separately). Until
    /// repaired the port reports no availability. Returns `true` if the
    /// pool was up.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn fail_port(&mut self, port: usize) -> bool {
        assert!(port < self.size, "port out of range");
        if self.port_down[port] {
            return false;
        }
        self.port_down[port] = true;
        self.busy_resources[port] = 0;
        self.update_port_free(port);
        true
    }

    /// Brings the pool on `port` back online at full capacity. Returns
    /// `true` if the pool was down.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn repair_port(&mut self, port: usize) -> bool {
        assert!(port < self.size, "port out of range");
        let was = std::mem::replace(&mut self.port_down[port], false);
        self.update_port_free(port);
        was
    }

    /// Whether the resource pool on `port` is offline.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    #[must_use]
    pub fn port_is_down(&self, port: usize) -> bool {
        assert!(port < self.size, "port out of range");
        self.port_down[port]
    }

    /// Number of interchange boxes per stage (`N/2`).
    #[must_use]
    pub fn boxes_per_stage(&self) -> usize {
        self.size / 2
    }

    /// Fails interchange box `box_id` of stage `stage`. The box advertises
    /// no availability and routes no new request, so reject-backtracking
    /// reroutes around it; circuits already holding links through it
    /// complete normally (fail-open). Returns `true` if the box was up.
    ///
    /// # Panics
    ///
    /// Panics if the stage or box index is out of range.
    pub fn fail_box(&mut self, stage: u32, box_id: usize) -> bool {
        assert!(stage < self.bits, "stage out of range");
        assert!(box_id < self.size / 2, "box out of range");
        let idx = self.box_index(stage as usize, box_id);
        let was = std::mem::replace(&mut self.box_down[idx], true);
        self.refresh_box_wires(stage, box_id);
        !was
    }

    /// Repairs interchange box `box_id` of stage `stage`. Returns `true`
    /// if the box was down.
    ///
    /// # Panics
    ///
    /// Panics if the stage or box index is out of range.
    pub fn repair_box(&mut self, stage: u32, box_id: usize) -> bool {
        assert!(stage < self.bits, "stage out of range");
        assert!(box_id < self.size / 2, "box out of range");
        let idx = self.box_index(stage as usize, box_id);
        let was = std::mem::replace(&mut self.box_down[idx], false);
        self.refresh_box_wires(stage, box_id);
        was
    }

    /// Whether interchange box `box_id` of stage `stage` is failed.
    ///
    /// # Panics
    ///
    /// Panics if the stage or box index is out of range.
    #[must_use]
    pub fn box_is_down(&self, stage: u32, box_id: usize) -> bool {
        assert!(stage < self.bits, "stage out of range");
        assert!(box_id < self.size / 2, "box out of range");
        self.box_down[self.box_index(stage as usize, box_id)]
    }

    /// Runs one resolution epoch for `requesters` (distinct processor
    /// indices): [`MultistageState::resolve_typed`] with every request of
    /// type 0. Granted circuits immediately occupy their links.
    ///
    /// # Panics
    ///
    /// Panics if a requester index is out of range or duplicated.
    pub fn resolve(&mut self, requesters: &[usize], admission: Admission) -> Resolution {
        let mut typed = std::mem::take(&mut self.scratch.typed);
        typed.clear();
        typed.extend(requesters.iter().map(|&p| (p, 0)));
        let res = self.resolve_typed(&typed, admission);
        self.scratch.typed = typed;
        res
    }

    /// Panics unless every requester index is in range and distinct.
    fn check_distinct(&mut self, requests: &[(usize, usize)]) {
        let seen = &mut self.scratch.seen;
        seen.clear();
        seen.resize(self.size, false);
        for &(p, _) in requests {
            assert!(p < self.size, "processor {p} out of range");
            assert!(!seen[p], "processor {p} duplicated");
            seen[p] = true;
        }
    }

    /// Runs one resolution epoch for typed requests `(processor, type)`.
    /// A request of type `t` is only routed toward ports whose
    /// [`MultistageState::port_type`] equals `t` — per-type availability
    /// registers, exactly as the paper's extension describes.
    ///
    /// # Panics
    ///
    /// Panics if a processor index is out of range or duplicated.
    pub fn resolve_typed(
        &mut self,
        requests: &[(usize, usize)],
        admission: Admission,
    ) -> Resolution {
        self.check_distinct(requests);
        match admission {
            Admission::Simultaneous => self.resolve_batch(requests),
            Admission::Staggered => {
                let mut total = Resolution::default();
                for &req in requests {
                    let r = self.resolve_batch(&[req]);
                    total.granted.extend(r.granted);
                    total.rejected.extend(r.rejected);
                    total.not_submitted.extend(r.not_submitted);
                    total.box_visits += r.box_visits;
                }
                total
            }
        }
    }

    /// Recomputes the availability of every boundary wire given current
    /// links plus `claimed` into `down`: bit `(k, w)` is set when ≥ 1 free
    /// resource **of type `ty`** is reachable from input wire `w` of stage
    /// `k` through free, unclaimed links.
    fn reachability_into(
        &self,
        claimed: &BitMatrix,
        ty: usize,
        down: &mut BitMatrix,
        t_in: &mut Vec<u64>,
        t_box: &mut Vec<u64>,
    ) {
        #[cfg(test)]
        if self.reference_oracle {
            self.reachability_reference_into(claimed, ty, down);
            return;
        }
        self.reachability_bitslice_into(claimed, ty, down, t_in, t_box);
    }

    /// The reference oracle: one traversal per wire per stage, reading box
    /// topology on the fly. Kept as the semantic definition that the
    /// bit-sliced compilation is tested against.
    #[cfg(test)]
    fn reachability_reference_into(&self, claimed: &BitMatrix, ty: usize, down: &mut BitMatrix) {
        let n = self.bits as usize;
        down.reset(n + 1, self.size);
        for w in 0..self.size {
            if !self.port_down[w]
                && self.port_types[w] == ty
                && self.busy_resources[w] < self.resources_per_port
            {
                down.set(n, w);
            }
        }
        for k in (0..n).rev() {
            for w_in in 0..self.size {
                let (outs, _) = self.wiring.box_outputs(self.bits, k as u32, w_in);
                // A failed box's availability registers are stuck at zero:
                // nothing is reachable through it.
                let box_id = self.wiring.box_of_output(self.bits, k as u32, outs[0]);
                let reach = !self.box_down[self.box_index(k, box_id)]
                    && outs.iter().any(|&wire_out| {
                        !self.link_busy_at(k, wire_out)
                            && !claimed.get(k, wire_out)
                            && down.get(k + 1, wire_out)
                    });
                if reach {
                    down.set(k, w_in);
                }
            }
        }
    }

    /// The bit-sliced status wave: each stage is a handful of whole-word
    /// AND/OR/shift operations on packed wire lanes instead of `N` per-wire
    /// traversals.
    ///
    /// Per stage `k` (walking from the resource side), the transmissible
    /// lanes are `t = down[k+1] & !link_busy[k] & !claimed[k] & !dead[k]`;
    /// a box input reaches stage `k+1` iff either of its two output wires
    /// is transmissible. Under Omega wiring, output wire `w`'s box is
    /// `w >> 1` and input wire `w` enters box `w mod N/2` — so the stage
    /// reduces to an even/odd pairwise OR compress followed by tiling the
    /// half-row twice. Under Cube wiring stage `k` pairs wires differing in
    /// bit `bits-1-k`, a single distance-`d` swap-OR. Tail lanes stay zero
    /// throughout because every row is ANDed against an already-clean row.
    fn reachability_bitslice_into(
        &self,
        claimed: &BitMatrix,
        ty: usize,
        down: &mut BitMatrix,
        t_in: &mut Vec<u64>,
        t_box: &mut Vec<u64>,
    ) {
        let n = self.bits as usize;
        let wpr = self.words_per_row;
        down.reset(n + 1, self.size);
        // Base row: online ports of the requested type with a free resource.
        // No port hosting `ty` (no mask) leaves the row all-zero.
        if let Some(mask) = self.type_mask(ty) {
            let base = down.row_mut(n);
            for w in 0..wpr {
                base[w] = self.port_free[w] & mask[w];
            }
        }
        t_in.clear();
        t_in.resize(wpr, 0);
        for k in (0..n).rev() {
            let busy = &self.link_busy[k * wpr..(k + 1) * wpr];
            let dead = &self.box_dead_wires[k * wpr..(k + 1) * wpr];
            let cl = claimed.row(k);
            let up = down.row(k + 1);
            for w in 0..wpr {
                t_in[w] = up[w] & !busy[w] & !cl[w] & !dead[w];
            }
            match self.wiring {
                Wiring::Omega => {
                    or_pairs_compress(t_in, self.size / 2, t_box);
                    tile_double(t_box, self.size / 2, t_in);
                    down.row_mut(k).copy_from_slice(&t_in[..wpr]);
                }
                Wiring::Cube => {
                    swap_or(t_in, 1usize << (self.bits - 1 - k as u32), t_box);
                    down.row_mut(k).copy_from_slice(&t_box[..wpr]);
                }
            }
        }
    }

    fn resolve_batch(&mut self, requesters: &[(usize, usize)]) -> Resolution {
        let n = self.bits as usize;
        // Detach the scratch so `&self` stays free for reachability scans.
        let mut scratch = std::mem::take(&mut self.scratch);
        let ResolverScratch {
            claimed,
            down,
            t_in,
            t_box,
            types,
            flights,
            frames,
            links,
            ..
        } = &mut scratch;
        claimed.reset(n, self.size);
        let mut res = Resolution::default();
        // One exact reservation instead of doubling growth as grants land.
        res.granted.reserve(requesters.len());

        // One availability-register table per resource type in flight (the
        // paper: "there is one register for each type of resources reachable
        // from this output port").
        types.clear();
        types.extend(requesters.iter().map(|&(_, t)| t));
        types.sort_unstable();
        types.dedup();
        down.truncate(types.len());
        down.resize_with(types.len(), Default::default);
        for (slot, &t) in down.iter_mut().zip(types.iter()) {
            slot.0 = t;
        }

        // Submission: a processor only enters the network while its box
        // reports reachable availability of its type (end of the status
        // phase).
        for (t, table) in down.iter_mut() {
            self.reachability_into(claimed, *t, table, t_in, t_box);
        }
        let lookup = |down: &[(usize, BitMatrix)], t: usize| -> usize {
            down.iter().position(|e| e.0 == t).expect("type present")
        };
        // Arena slots: flight `i` owns `frames[i*n..][..frame_len]` and
        // `links[i*n..][..link_len]`.
        let idle = Frame {
            wire_in: 0,
            tried: [false, false],
        };
        frames.clear();
        frames.resize(requesters.len() * n, idle);
        links.clear();
        links.resize(requesters.len() * n, Link { stage: 0, wire: 0 });
        flights.clear();
        for &(p, t) in requesters {
            if down[lookup(down, t)].1.get(0, p) {
                res.box_visits += 1; // enters its stage-0 box
                frames[flights.len() * n] = Frame {
                    wire_in: p,
                    tried: [false, false],
                };
                flights.push(Flight {
                    processor: p,
                    ty: t,
                    frame_len: 1,
                    link_len: 0,
                    state: FlightState::Active,
                });
            } else {
                res.not_submitted.push(p);
            }
        }

        // Lock-step rounds: one action per active flight per round.
        while flights.iter().any(|f| f.state == FlightState::Active) {
            if self.freshness == StatusFreshness::Continuous {
                for (t, table) in down.iter_mut() {
                    self.reachability_into(claimed, *t, table, t_in, t_box);
                }
            }
            for (fi, fl) in flights
                .iter_mut()
                .enumerate()
                .filter(|(_, f)| f.state == FlightState::Active)
            {
                let fbase = fi * n;
                let k = fl.link_len; // current stage
                let fl_down = &down[lookup(down, fl.ty)].1;
                let frame = frames[fbase + fl.frame_len - 1];
                let (outs, straight) = self.wiring.box_outputs(self.bits, k as u32, frame.wire_in);
                // A failed box switches nothing: the request sees an
                // immediate reject and backtracks.
                let box_dead = self.box_down
                    [self.box_index(k, self.wiring.box_of_output(self.bits, k as u32, outs[0]))];
                // Prefer the straight connection, then exchange.
                let preference = [straight, straight ^ 1];
                let mut advanced = false;
                for &out in &preference {
                    if box_dead || frame.tried[out] {
                        continue;
                    }
                    let wire_out = outs[out];
                    if self.link_busy_at(k, wire_out) || claimed.get(k, wire_out) {
                        continue;
                    }
                    if !fl_down.get(k + 1, wire_out) {
                        continue;
                    }
                    // A real collision can slip past stale registers: the
                    // final hop double-checks the resource itself.
                    if k + 1 == n
                        && (self.port_down[wire_out]
                            || self.busy_resources[wire_out] >= self.resources_per_port
                            || self.port_types[wire_out] != fl.ty)
                    {
                        continue;
                    }
                    // Claim the link (the box zeroes this availability
                    // register: resources are no longer reachable through it
                    // for anyone else until released).
                    claimed.set(k, wire_out);
                    links[fbase + fl.link_len] = Link {
                        stage: k as u32,
                        wire: wire_out,
                    };
                    fl.link_len += 1;
                    if k + 1 == n {
                        fl.state = FlightState::Granted;
                    } else {
                        res.box_visits += 1; // enters the next box
                        frames[fbase + fl.frame_len] = Frame {
                            wire_in: wire_out,
                            tried: [false, false],
                        };
                        fl.frame_len += 1;
                    }
                    advanced = true;
                    break;
                }
                if advanced {
                    continue;
                }
                // Reject J: backtrack one stage.
                if fl.frame_len == 1 {
                    fl.state = FlightState::Rejected;
                    continue;
                }
                fl.frame_len -= 1;
                fl.link_len -= 1;
                let undone = links[fbase + fl.link_len];
                claimed.clear_bit(undone.stage as usize, undone.wire);
                let parent = &mut frames[fbase + fl.frame_len - 1];
                let (parent_outs, _) =
                    self.wiring
                        .box_outputs(self.bits, fl.link_len as u32, parent.wire_in);
                let out_bit = usize::from(parent_outs[1] == undone.wire);
                parent.tried[out_bit] = true;
                res.box_visits += 1; // re-enters the parent box
            }
        }

        for (fi, fl) in flights.iter().enumerate() {
            let fbase = fi * n;
            match fl.state {
                FlightState::Granted => {
                    let held = &links[fbase..fbase + fl.link_len];
                    let port = held.last().expect("granted flight has links").wire;
                    for l in held {
                        set_bit(
                            &mut self.link_busy[l.stage as usize * self.words_per_row..],
                            l.wire,
                        );
                    }
                    res.granted.push(Circuit {
                        processor: fl.processor,
                        port,
                        links: held.to_vec(),
                    });
                }
                FlightState::Rejected => res.rejected.push(fl.processor),
                FlightState::Active => unreachable!("loop drains active flights"),
            }
        }
        self.scratch = scratch;
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig11_network() -> MultistageState {
        // Resources R0, R1, R4, R5 available; R2, R3, R6, R7 busy.
        let mut net = OmegaState::new(8, 1).expect("8x8");
        for port in [2, 3, 6, 7] {
            net.occupy_resource(port);
        }
        net
    }

    #[test]
    fn fig11_all_four_requests_are_served() {
        let mut net = fig11_network();
        let res = net.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 4, "rejected: {:?}", res.rejected);
        // Each granted port is one of the free resources, each used once.
        let mut ports: Vec<usize> = res.granted.iter().map(|c| c.port).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![0, 1, 4, 5]);
    }

    #[test]
    fn fig11_average_boxes_traversed() {
        // The paper reports 3.5 boxes per request on average: three direct
        // routes (3 boxes each) plus one reject-and-reroute (5 visits).
        let mut net = fig11_network();
        let res = net.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
        let avg = res.box_visits as f64 / 4.0;
        assert!(
            (3.0..=4.0).contains(&avg),
            "average box visits {avg} should be near the paper's 3.5"
        );
    }

    #[test]
    fn granted_circuits_hold_their_links() {
        let mut net = OmegaState::new(8, 1).expect("8x8");
        let res = net.resolve(&[0], Admission::Simultaneous);
        let circuit = &res.granted[0];
        for l in &circuit.links {
            assert!(net.link_is_busy(*l));
        }
        // Release restores the links but not the resource.
        let c = circuit.clone();
        net.release_circuit(&c);
        for l in &c.links {
            assert!(!net.link_is_busy(*l));
        }
    }

    #[test]
    fn no_submission_when_nothing_is_free() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        for port in 0..4 {
            net.occupy_resource(port);
        }
        let res = net.resolve(&[0, 1], Admission::Simultaneous);
        assert!(res.granted.is_empty());
        assert_eq!(res.not_submitted.len(), 2);
        assert!(res.rejected.is_empty());
        assert_eq!(res.box_visits, 0, "status phase suppresses the queries");
    }

    #[test]
    fn contention_for_one_resource_rejects_loser() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        for port in 1..4 {
            net.occupy_resource(port);
        }
        let res = net.resolve(&[0, 1, 2, 3], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 1);
        assert_eq!(res.granted[0].port, 0);
        assert_eq!(res.rejected.len() + res.not_submitted.len(), 3);
    }

    #[test]
    fn requests_search_alternate_resources_when_path_blocked() {
        // Distributed RSIN scheduling's selling point: a blocked path does
        // not doom the request while another free resource is reachable.
        let mut net = OmegaState::new(8, 1).expect("8x8");
        // First request takes a circuit and keeps it.
        let first = net.resolve(&[0], Admission::Simultaneous);
        assert_eq!(first.granted.len(), 1);
        // All other processors now request; 7 resources remain and at least
        // some links are held, yet everyone who can route should be served.
        let res = net.resolve(&[1, 2, 3, 4, 5, 6, 7], Admission::Simultaneous);
        assert!(
            res.granted.len() >= 5,
            "most requests should still find resources, got {}",
            res.granted.len()
        );
        // No two circuits share a link.
        let mut all_links: Vec<Link> = res
            .granted
            .iter()
            .chain(first.granted.iter())
            .flat_map(|c| c.links.iter().copied())
            .collect();
        let before = all_links.len();
        all_links.sort_unstable();
        all_links.dedup();
        assert_eq!(before, all_links.len(), "links must be exclusively held");
    }

    #[test]
    fn staggered_admission_never_grants_fewer_for_single_requests() {
        let mut a = fig11_network();
        let mut b = fig11_network();
        let sim = a.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
        let stag = b.resolve(&[0, 3, 4, 5], Admission::Staggered);
        assert_eq!(sim.granted.len(), stag.granted.len());
    }

    #[test]
    fn multi_resource_ports_accept_multiple_tasks_sequentially() {
        let mut net = OmegaState::new(2, 2).expect("2x2");
        let g1 = net.resolve(&[0], Admission::Simultaneous);
        assert_eq!(g1.granted.len(), 1);
        let c1 = g1.granted[0].clone();
        // Transmission ends: link freed, resource busy.
        net.release_circuit(&c1);
        net.occupy_resource(c1.port);
        // Port still has one free resource: a new request may land there.
        let g2 = net.resolve(&[1], Admission::Simultaneous);
        assert_eq!(g2.granted.len(), 1);
    }

    #[test]
    fn resolve_rejects_out_of_range_and_duplicates() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.resolve(&[9], Admission::Simultaneous)
        }));
        assert!(r.is_err());
        let mut net = OmegaState::new(4, 1).expect("4x4");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.resolve(&[1, 1], Admission::Simultaneous)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(OmegaState::new(6, 1).is_err());
        assert!(MultistageState::new_cube(10, 1).is_err());
    }

    // ---- faults -----------------------------------------------------------

    #[test]
    fn failed_port_reports_no_availability_until_repair() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        for port in 1..4 {
            net.fail_port(port);
        }
        assert!(!net.fail_port(1), "already down");
        // Only port 0 is alive: one grant, and it lands there.
        let res = net.resolve(&[0, 1, 2, 3], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 1);
        assert_eq!(res.granted[0].port, 0);
        assert!(net.repair_port(1));
        assert!(!net.port_is_down(1));
        net.release_circuit(&res.granted[0].clone());
        net.occupy_resource(res.granted[0].port);
        let res2 = net.resolve(&[1], Admission::Simultaneous);
        assert_eq!(res2.granted.len(), 1);
        assert_eq!(res2.granted[0].port, 1, "repaired pool serves again");
    }

    #[test]
    fn failed_box_forces_reroute_around_it() {
        // Kill a final-stage box: its two ports become unreachable, but the
        // other six resources still are — every processor that can route
        // through the surviving fabric is served.
        let mut net = OmegaState::new(8, 1).expect("8x8");
        let last = net.stages() - 1;
        assert!(net.fail_box(last, 0));
        assert!(!net.fail_box(last, 0), "already failed");
        assert!(net.box_is_down(last, 0));
        let res = net.resolve(&[0, 1, 2, 3, 4, 5, 6, 7], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 6, "rejected: {:?}", res.rejected);
        for c in &res.granted {
            assert!(
                !matches!(c.port, 0 | 1),
                "ports behind the dead box must be unreachable, got {}",
                c.port
            );
        }
    }

    #[test]
    fn failed_stage0_box_suppresses_its_processors() {
        // Stage-0 box 0 feeds processors 0 and 1 (Omega wiring): with it
        // dead, those processors see no availability and never submit.
        let mut net = OmegaState::new(8, 1).expect("8x8");
        // Find the stage-0 box of processor 0 by failing each in turn.
        let mut suppressed_box = None;
        for b in 0..net.boxes_per_stage() {
            net.fail_box(0, b);
            let r = net.resolve(&[0], Admission::Simultaneous);
            let gone = r.not_submitted == vec![0];
            for c in &r.granted {
                net.release_circuit(c);
            }
            net.repair_box(0, b);
            if gone {
                suppressed_box = Some(b);
                break;
            }
        }
        let b = suppressed_box.expect("some stage-0 box serves processor 0");
        net.fail_box(0, b);
        // Processor 1 enters a different stage-0 box (its shuffled wire
        // lands in box 1), so it still routes.
        let res = net.resolve(&[0, 1], Admission::Simultaneous);
        assert!(res.not_submitted.contains(&0));
        assert_eq!(res.granted.len(), 1, "the other processor still routes");
        assert_eq!(res.granted[0].processor, 1);
    }

    #[test]
    fn cube_box_faults_reroute_too() {
        let mut net = MultistageState::new_cube(8, 1).expect("8x8 cube");
        let last = net.stages() - 1;
        net.fail_box(last, 0);
        let res = net.resolve(&[0, 1, 2, 3, 4, 5, 6, 7], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 6, "rejected: {:?}", res.rejected);
    }

    #[test]
    fn fail_port_clears_busy_count_and_repair_restores_capacity() {
        let mut net = OmegaState::new(4, 2).expect("4x4");
        net.occupy_resource(0);
        net.occupy_resource(0);
        net.fail_port(0);
        net.repair_port(0);
        assert_eq!(net.free_resources(0), 2, "full capacity after repair");
    }

    // ---- cube wiring ------------------------------------------------------

    #[test]
    fn cube_serves_all_when_everything_free() {
        let mut net = MultistageState::new_cube(8, 1).expect("8x8 cube");
        let res = net.resolve(&[0, 1, 2, 3, 4, 5, 6, 7], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 8, "rejected: {:?}", res.rejected);
        let mut ports: Vec<usize> = res.granted.iter().map(|c| c.port).collect();
        ports.sort_unstable();
        assert_eq!(ports, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn cube_circuits_respect_link_exclusivity() {
        let mut net = MultistageState::new_cube(16, 1).expect("16x16 cube");
        let res = net.resolve(&[0, 3, 7, 9, 12], Admission::Simultaneous);
        let mut links: Vec<Link> = res
            .granted
            .iter()
            .flat_map(|c| c.links.iter().copied())
            .collect();
        let before = links.len();
        links.sort_unstable();
        links.dedup();
        assert_eq!(before, links.len());
        for c in &res.granted {
            assert_eq!(c.links.len(), 4, "one link per stage");
        }
    }

    #[test]
    fn cube_reroutes_like_the_paper_says() {
        // "A similar example can be generated for the indirect binary n-cube
        // network": with only some resources free, contention still resolves
        // by rerouting.
        let mut net = MultistageState::new_cube(8, 1).expect("8x8 cube");
        for port in [2, 3, 6, 7] {
            net.occupy_resource(port);
        }
        let res = net.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 4, "rejected: {:?}", res.rejected);
    }

    #[test]
    fn wiring_accessors() {
        let o = OmegaState::new(4, 1).expect("omega");
        assert_eq!(o.wiring(), Wiring::Omega);
        let c = MultistageState::new_cube(4, 1).expect("cube");
        assert_eq!(c.wiring(), Wiring::Cube);
    }

    // ---- status freshness -------------------------------------------------

    #[test]
    fn typed_requests_land_on_matching_ports() {
        let mut net = OmegaState::new(8, 1).expect("8x8");
        // Even ports host type 0, odd ports type 1 (interleaved placement).
        let types: Vec<usize> = (0..8).map(|p| p % 2).collect();
        net.set_port_types(&types);
        let res = net.resolve_typed(&[(0, 0), (1, 1), (2, 0), (3, 1)], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 4, "rejected: {:?}", res.rejected);
        for c in &res.granted {
            let want = match c.processor {
                0 | 2 => 0,
                _ => 1,
            };
            assert_eq!(
                net.port_type(c.port),
                want,
                "P{} got R{}",
                c.processor,
                c.port
            );
        }
    }

    #[test]
    fn typed_exhaustion_is_per_type() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        net.set_port_types(&[0, 0, 1, 1]);
        net.occupy_resource(0);
        net.occupy_resource(1);
        // Type 0 exhausted: its request is not even submitted; type 1 flows.
        let res = net.resolve_typed(&[(0, 0), (1, 1)], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 1);
        assert_eq!(res.granted[0].processor, 1);
        assert_eq!(res.not_submitted, vec![0]);
    }

    #[test]
    fn untyped_resolve_is_type_zero() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        net.set_port_types(&[0, 0, 1, 1]);
        // Untyped requests are type-0 requests: only 2 can ever be served.
        let res = net.resolve(&[0, 1, 2, 3], Admission::Simultaneous);
        assert_eq!(res.granted.len(), 2);
        for c in &res.granted {
            assert_eq!(net.port_type(c.port), 0);
        }
    }

    #[test]
    #[should_panic(expected = "one type per output port")]
    fn port_types_length_checked() {
        let mut net = OmegaState::new(4, 1).expect("4x4");
        net.set_port_types(&[0, 1]);
    }

    #[test]
    fn stale_status_never_grants_more() {
        // With epoch-start (stale) status, claims made by competing requests
        // are invisible to the registers, so requests walk into conflicts
        // and burn visits; grants can only stay equal or drop.
        for seed_ports in [[2usize, 3, 6, 7], [1, 3, 5, 7], [4, 5, 6, 7]] {
            let build = |fresh| {
                let mut net = OmegaState::new(8, 1).expect("8x8");
                net.set_status_freshness(fresh);
                for &p in &seed_ports {
                    net.occupy_resource(p);
                }
                net
            };
            let mut fresh = build(StatusFreshness::Continuous);
            let mut stale = build(StatusFreshness::EpochStart);
            let rf = fresh.resolve(&[0, 1, 2, 3], Admission::Simultaneous);
            let rs = stale.resolve(&[0, 1, 2, 3], Admission::Simultaneous);
            assert!(
                rs.granted.len() <= rf.granted.len(),
                "stale {} vs fresh {}",
                rs.granted.len(),
                rf.granted.len()
            );
        }
    }

    // ---- bit-sliced status phase vs the reference oracle --------------------

    /// Deterministic SplitMix-style generator so the fuzz corpus is stable.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as u32
        }

        fn below(&mut self, n: usize) -> usize {
            self.next() as usize % n
        }

        fn chance(&mut self, pct: u32) -> bool {
            self.next() % 100 < pct
        }
    }

    /// Scrambles a network into a random mid-simulation state: busy
    /// resources, held links, typed ports, and port/box casualties.
    fn scramble(net: &mut MultistageState, rng: &mut Lcg, types: usize) {
        let size = net.size();
        let mut port_types = vec![0usize; size];
        for t in &mut port_types {
            *t = rng.below(types);
        }
        net.set_port_types(&port_types);
        for port in 0..size {
            for _ in 0..net.resources_per_port() {
                if rng.chance(30) {
                    net.occupy_resource(port);
                }
            }
            if rng.chance(10) {
                net.fail_port(port);
            }
        }
        for stage in 0..net.stages() {
            for b in 0..net.boxes_per_stage() {
                if rng.chance(8) {
                    net.fail_box(stage, b);
                }
            }
            // Held links straight into the packed rows: the bit-sliced
            // phase and the oracle read them identically.
            let base = stage as usize * net.words_per_row;
            for w in 0..size {
                if rng.chance(15) {
                    set_bit(&mut net.link_busy[base..], w);
                }
            }
        }
    }

    /// The tentpole's core claim: the bit-sliced stage compilation computes
    /// the **same availability table, bit for bit**, as the per-wire
    /// reference oracle — across wirings, non-power-of-64 sizes (lane-tail
    /// masking), multi-word rows, typed ports, faults, and claimed links.
    #[test]
    fn bitslice_reachability_matches_reference_bit_for_bit() {
        let mut rng = Lcg(0x5eed);
        for wiring in [Wiring::Omega, Wiring::Cube] {
            for size in [2usize, 4, 8, 16, 32, 128] {
                for round in 0..8 {
                    let mut net = MultistageState::with_wiring(size, 2, wiring).expect("pow2");
                    scramble(&mut net, &mut rng, 1 + round % 3);
                    let mut claimed = BitMatrix::default();
                    claimed.reset(net.stages() as usize, size);
                    for row in 0..net.stages() as usize {
                        for w in 0..size {
                            if rng.chance(20) {
                                claimed.set(row, w);
                            }
                        }
                    }
                    let (mut fast, mut slow) = (BitMatrix::default(), BitMatrix::default());
                    let (mut t_in, mut t_box) = (Vec::new(), Vec::new());
                    for ty in 0..3 {
                        net.reachability_bitslice_into(
                            &claimed, ty, &mut fast, &mut t_in, &mut t_box,
                        );
                        net.reachability_reference_into(&claimed, ty, &mut slow);
                        assert_eq!(
                            fast.words, slow.words,
                            "{wiring:?} N={size} round={round} ty={ty}"
                        );
                    }
                }
            }
        }
    }

    /// Whole-resolution equivalence: identical `Resolution`s (grants in the
    /// same order, same rejects, same box-visit counts) from the production
    /// resolver and the oracle on scrambled networks, for both admission
    /// disciplines and both freshness regimes, untyped and typed.
    #[test]
    fn resolver_matches_reference_oracle() {
        let mut rng = Lcg(0xfacade);
        for wiring in [Wiring::Omega, Wiring::Cube] {
            for size in [4usize, 8, 128] {
                for round in 0..4 {
                    let mut fast = MultistageState::with_wiring(size, 2, wiring).expect("pow2");
                    scramble(&mut fast, &mut rng, 2);
                    let mut slow = fast.clone();
                    slow.use_reference_oracle();
                    let freshness = if round % 2 == 0 {
                        StatusFreshness::Continuous
                    } else {
                        StatusFreshness::EpochStart
                    };
                    fast.set_status_freshness(freshness);
                    slow.set_status_freshness(freshness);
                    let admission = if round < 2 {
                        Admission::Simultaneous
                    } else {
                        Admission::Staggered
                    };
                    let mut requests: Vec<(usize, usize)> = Vec::new();
                    for p in 0..size {
                        if rng.chance(60) {
                            let ty = rng.below(2);
                            requests.push((p, ty));
                        }
                    }
                    let ra = fast.resolve_typed(&requests, admission);
                    let rb = slow.resolve_typed(&requests, admission);
                    assert_eq!(ra, rb, "{wiring:?} N={size} round={round}");
                    assert_eq!(
                        fast.link_busy, slow.link_busy,
                        "held links diverged: {wiring:?} N={size} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn stale_status_costs_more_box_visits_under_contention() {
        // All eight processors race for two free ports: stale registers
        // cause wasted walks toward already-claimed links.
        let build = |fresh| {
            let mut net = OmegaState::new(8, 1).expect("8x8");
            net.set_status_freshness(fresh);
            for p in 0..6 {
                net.occupy_resource(p);
            }
            net
        };
        let mut fresh = build(StatusFreshness::Continuous);
        let mut stale = build(StatusFreshness::EpochStart);
        let all: Vec<usize> = (0..8).collect();
        let rf = fresh.resolve(&all, Admission::Simultaneous);
        let rs = stale.resolve(&all, Admission::Simultaneous);
        assert!(
            rs.box_visits >= rf.box_visits,
            "stale {} visits vs fresh {}",
            rs.box_visits,
            rf.box_visits
        );
    }
}
