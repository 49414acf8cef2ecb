//! The crossbar RSIN as a simulatable [`ResourceNetwork`].
//!
//! `i` independent `j × k` crossbars; every output column is a bus carrying
//! `r` resources. A column advertises availability (`Y_{0,j} = 1`) exactly
//! when its bus is idle **and** at least one of its resources is free; the
//! bit-sliced compilation ([`BitFabric`]) of the gate-level
//! [`CrossbarFabric`](crate::CrossbarFabric) resolves each request cycle.

use crate::bitslice::BitFabric;
use rsin_core::{Grant, NetworkCounters, PendingSet, ResourceNetwork, SystemConfig};
use rsin_des::SimRng;

/// How winners are chosen when several processors contend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CrossbarPolicy {
    /// The paper's daisy-chained fabric: deterministic wave, low indices
    /// win (asymmetric).
    #[default]
    FixedPriority,
    /// The POLYP-style circulating token: a uniformly random pending
    /// processor wins each free bus.
    RandomToken,
}

#[derive(Debug)]
struct Partition {
    fabric: BitFabric,
    /// Which local processor holds each bus during transmission.
    held_by: Vec<Option<usize>>,
    busy_resources: Vec<u32>,
    /// Whether each output column's resource pool is online.
    pool_up: Vec<bool>,
    /// Packed image of the availability predicate, maintained incrementally:
    /// bit `j` set iff `pool_up[j] && held_by[j].is_none() &&
    /// busy_resources[j] < r`. Lets the bit-sliced wave start from a
    /// one-word copy instead of re-deriving and re-packing the predicate
    /// every cycle. The cell-by-cell test oracle deliberately re-derives it
    /// from the scalar fields, so an incremental-update bug here shows up
    /// as a divergence in the equivalence tests.
    avail: Vec<u64>,
}

impl Partition {
    /// Re-evaluates the availability bit of column `j` after any of its
    /// inputs changed.
    fn refresh_avail(&mut self, j: usize, resources_per_bus: u32) {
        if self.pool_up[j]
            && self.held_by[j].is_none()
            && self.busy_resources[j] < resources_per_bus
        {
            rsin_bitslice::set_bit(&mut self.avail, j);
        } else {
            rsin_bitslice::clear_bit(&mut self.avail, j);
        }
    }
}

/// A partitioned distributed-scheduling crossbar RSIN.
///
/// # Examples
///
/// ```
/// use rsin_core::{ResourceNetwork, SystemConfig};
/// use rsin_xbar::{CrossbarNetwork, CrossbarPolicy};
///
/// let cfg: SystemConfig = "16/1x16x32 XBAR/1".parse()?;
/// let net = CrossbarNetwork::from_config(&cfg, CrossbarPolicy::FixedPriority)?;
/// assert_eq!(net.processors(), 16);
/// assert_eq!(net.total_resources(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CrossbarNetwork {
    inputs: usize,
    outputs: usize,
    resources_per_bus: u32,
    policy: CrossbarPolicy,
    partitions: Vec<Partition>,
    counters: NetworkCounters,
    scratch: CycleScratch,
}

/// Reusable per-cycle buffers (the partition being swept), so request
/// cycles in steady state allocate only the returned grant vector.
#[derive(Debug, Default)]
struct CycleScratch {
    req_words: Vec<u64>,
    avail_words: Vec<u64>,
    procs: Vec<usize>,
    buses: Vec<usize>,
    local: Vec<(usize, usize)>,
}

/// Error building a [`CrossbarNetwork`] from a config of the wrong kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrongKindError {
    /// The kind found in the configuration.
    pub found: rsin_core::NetworkKind,
}

impl std::fmt::Display for WrongKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected an XBAR configuration, got {}", self.found)
    }
}

impl std::error::Error for WrongKindError {}

impl CrossbarNetwork {
    /// Builds the network described by `config` (kind must be
    /// [`NetworkKind::Crossbar`](rsin_core::NetworkKind::Crossbar)).
    ///
    /// # Errors
    ///
    /// [`WrongKindError`] when the configuration names another network type.
    pub fn from_config(
        config: &SystemConfig,
        policy: CrossbarPolicy,
    ) -> Result<Self, WrongKindError> {
        if config.kind() != rsin_core::NetworkKind::Crossbar {
            return Err(WrongKindError {
                found: config.kind(),
            });
        }
        Ok(CrossbarNetwork::new(
            config.networks() as usize,
            config.inputs() as usize,
            config.outputs() as usize,
            config.resources_per_port(),
            policy,
        ))
    }

    /// Builds `partitions` independent `inputs × outputs` crossbars with
    /// `resources_per_bus` resources on every output column.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn new(
        partitions: usize,
        inputs: usize,
        outputs: usize,
        resources_per_bus: u32,
        policy: CrossbarPolicy,
    ) -> Self {
        assert!(
            partitions > 0 && inputs > 0 && outputs > 0,
            "counts must be positive"
        );
        assert!(resources_per_bus > 0, "resources per bus must be positive");
        CrossbarNetwork {
            inputs,
            outputs,
            resources_per_bus,
            policy,
            partitions: (0..partitions)
                .map(|_| {
                    let mut avail = vec![u64::MAX; rsin_bitslice::words_for(outputs)];
                    if let Some(last) = avail.last_mut() {
                        *last &= rsin_bitslice::tail_mask(outputs);
                    }
                    Partition {
                        fabric: BitFabric::new(inputs, outputs),
                        held_by: vec![None; outputs],
                        busy_resources: vec![0; outputs],
                        pool_up: vec![true; outputs],
                        avail,
                    }
                })
                .collect(),
            counters: NetworkCounters::default(),
            scratch: CycleScratch::default(),
        }
    }

    /// The scheduling policy in force.
    #[must_use]
    pub fn policy(&self) -> CrossbarPolicy {
        self.policy
    }

    /// Worst-case request-cycle cost of one partition in gate delays,
    /// `4(j + k)` (Section IV).
    #[must_use]
    pub fn request_cycle_gate_delay(&self) -> u32 {
        self.partitions[0].fabric.request_cycle_gate_delay()
    }

    /// One partition's request cycle. `pslice` and `req_words` are the
    /// partition's pending processors in unpacked and packed form — the
    /// caller supplies both views of the *same* set. Appends grants in
    /// global coordinates and updates the attempt/rejection counters.
    fn partition_cycle(
        &mut self,
        pi: usize,
        pslice: &[bool],
        req_words: &[u64],
        rng: &mut SimRng,
        grants: &mut Vec<Grant>,
    ) {
        let n_pending = rsin_bitslice::count_ones(req_words) as u64;
        if n_pending == 0 {
            return;
        }
        self.counters.attempts += n_pending;
        let base = pi * self.inputs;
        let resources_per_bus = self.resources_per_bus;
        let CycleScratch {
            avail_words,
            procs,
            buses,
            local,
            ..
        } = &mut self.scratch;
        let part = &mut self.partitions[pi];
        let f = &mut part.fabric;
        match self.policy {
            CrossbarPolicy::FixedPriority => {
                // The packed availability image is kept current by
                // `refresh_avail`, so the wave starts from a word copy
                // instead of a predicate sweep — and since a held bus is
                // never advertised as available, the wave may skip idle
                // latched rows.
                if n_pending == 1 {
                    // Lone requester: no later row observes the
                    // availability wave, so `avail` is read in place — no
                    // copy, no masking pass.
                    let (rw, word) = req_words
                        .iter()
                        .enumerate()
                        .find(|&(_, &w)| w != 0)
                        .expect("n_pending > 0");
                    let li = rw * 64 + word.trailing_zeros() as usize;
                    local.clear();
                    local.extend(
                        f.request_single_assuming_held(li, &part.avail)
                            .map(|lj| (li, lj)),
                    );
                } else {
                    avail_words.clear();
                    avail_words.extend_from_slice(&part.avail);
                    f.request_cycle_packed_assuming_held(req_words, avail_words, local);
                }
            }
            CrossbarPolicy::RandomToken => {
                // Token scheme: each free bus captures a random pending
                // processor; equivalently match shuffled lists. A pair
                // that lands on a failed crosspoint cannot connect and
                // is rejected for this cycle. Candidate lists are built
                // in ascending order from the scalar predicate.
                procs.clear();
                procs.extend((0..self.inputs).filter(|&l| pslice[l]));
                buses.clear();
                buses.extend((0..self.outputs).filter(|&j| {
                    part.pool_up[j]
                        && part.held_by[j].is_none()
                        && part.busy_resources[j] < resources_per_bus
                }));
                rng.shuffle(procs);
                rng.shuffle(buses);
                local.clear();
                local.extend(
                    procs
                        .iter()
                        .zip(buses.iter())
                        .map(|(&li, &lj)| (li, lj))
                        .filter(|&(li, lj)| !f.is_failed(li, lj)),
                );
            }
        }
        self.counters.rejections += n_pending - local.len() as u64;
        for &(li, lj) in local.iter() {
            part.held_by[lj] = Some(li);
            part.refresh_avail(lj, resources_per_bus);
            grants.push(Grant {
                processor: base + li,
                port: pi * self.outputs + lj,
            });
        }
    }
}

impl ResourceNetwork for CrossbarNetwork {
    fn processors(&self) -> usize {
        self.partitions.len() * self.inputs
    }

    fn total_resources(&self) -> usize {
        self.partitions.len() * self.outputs * self.resources_per_bus as usize
    }

    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.request_cycle_into(pending, rng, &mut grants);
        grants
    }

    fn request_cycle_into(&mut self, pending: &[bool], rng: &mut SimRng, grants: &mut Vec<Grant>) {
        assert_eq!(pending.len(), self.processors(), "pending vector size");
        grants.clear();
        // The scratch word buffer is moved out for the sweep so each
        // partition call can borrow the rest of `self` mutably.
        let mut req_words = std::mem::take(&mut self.scratch.req_words);
        for pi in 0..self.partitions.len() {
            let base = pi * self.inputs;
            let pslice = &pending[base..base + self.inputs];
            rsin_bitslice::pack_bools(pslice, &mut req_words);
            self.partition_cycle(pi, pslice, &req_words, rng, grants);
        }
        self.scratch.req_words = req_words;
    }

    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        grants: &mut Vec<Grant>,
    ) {
        if self.partitions.len() == 1 {
            // Single-partition crossbar: the partition's bits are the global
            // bits, so the simulator's packed words feed the wave directly —
            // no per-epoch repack at all.
            assert_eq!(
                pending.bools.len(),
                self.processors(),
                "pending vector size"
            );
            grants.clear();
            self.partition_cycle(0, pending.bools, pending.words, rng, grants);
        } else {
            self.request_cycle_into(pending.bools, rng, grants);
        }
    }

    fn end_transmission(&mut self, grant: Grant) {
        let pi = grant.port / self.outputs;
        let lj = grant.port % self.outputs;
        let part = &mut self.partitions[pi];
        let holder = part.held_by[lj].take().expect("bus was held");
        debug_assert_eq!(holder + pi * self.inputs, grant.processor);
        if self.policy == CrossbarPolicy::FixedPriority {
            // Break the circuit in the fabric: the holder's reset wave.
            part.fabric.reset_row(holder);
        }
        part.busy_resources[lj] += 1;
        debug_assert!(part.busy_resources[lj] <= self.resources_per_bus);
        part.refresh_avail(lj, self.resources_per_bus);
    }

    fn end_service(&mut self, grant: Grant) {
        let pi = grant.port / self.outputs;
        let lj = grant.port % self.outputs;
        let part = &mut self.partitions[pi];
        if !part.pool_up[lj] {
            // The pool failed and was cleared while this task was in
            // flight; nothing is held any more.
            return;
        }
        debug_assert!(part.busy_resources[lj] > 0, "no busy resource to free");
        part.busy_resources[lj] -= 1;
        part.refresh_avail(lj, self.resources_per_bus);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        let pi = port / self.outputs;
        let lj = port % self.outputs;
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        if !part.pool_up[lj] {
            return false;
        }
        part.pool_up[lj] = false;
        // Per the trait contract: release every circuit and busy count at
        // this port internally; the simulator requeues the casualties.
        if let Some(holder) = part.held_by[lj].take() {
            if self.policy == CrossbarPolicy::FixedPriority {
                part.fabric.reset_row(holder);
            }
        }
        part.busy_resources[lj] = 0;
        part.refresh_avail(lj, self.resources_per_bus);
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let pi = port / self.outputs;
        let lj = port % self.outputs;
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        if part.pool_up[lj] {
            return false;
        }
        part.pool_up[lj] = true;
        part.refresh_avail(lj, self.resources_per_bus);
        self.counters.resource_repairs += 1;
        true
    }

    fn fail_element(&mut self, element: usize) -> bool {
        // Element pi·(j·k) + i·k + j = crosspoint cell (i, j) of partition
        // pi. The cell sticks open (fail-open: an established circuit
        // keeps behaving as connected until its normal reset).
        let cells = self.inputs * self.outputs;
        let (pi, rem) = (element / cells, element % cells);
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        let accepted = part
            .fabric
            .fail_cell(rem / self.outputs, rem % self.outputs);
        if accepted {
            self.counters.element_failures += 1;
        }
        accepted
    }

    fn repair_element(&mut self, element: usize) -> bool {
        let cells = self.inputs * self.outputs;
        let (pi, rem) = (element / cells, element % cells);
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        let accepted = part
            .fabric
            .repair_cell(rem / self.outputs, rem % self.outputs);
        if accepted {
            self.counters.element_repairs += 1;
        }
        accepted
    }

    fn fault_elements(&self) -> usize {
        self.partitions.len() * self.inputs * self.outputs
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }

    fn label(&self) -> &'static str {
        "XBAR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::CrossbarFabric;

    /// Test oracle: the production bookkeeping (held buses, busy counts,
    /// pool state, counters) with every wave run cell by cell on Table-I
    /// [`CrossbarFabric`]s and availability re-derived from `pool_up`,
    /// `held_by` and `busy_resources` each cycle — never read from
    /// `Partition::avail`, so a missed `refresh_avail` diverges.
    #[derive(Debug)]
    struct CellOracle {
        net: CrossbarNetwork,
        cells: Vec<CrossbarFabric>,
    }

    impl CellOracle {
        fn new(parts: usize, p: usize, m: usize, r: u32, policy: CrossbarPolicy) -> Self {
            CellOracle {
                net: CrossbarNetwork::new(parts, p, m, r, policy),
                cells: (0..parts).map(|_| CrossbarFabric::new(p, m)).collect(),
            }
        }

        /// Partition and local cell of fault element `element`.
        fn cell_of(&self, element: usize) -> (usize, usize, usize) {
            let (p, m) = (self.net.inputs, self.net.outputs);
            (element / (p * m), element % (p * m) / m, element % m)
        }

        /// Resets `processor`'s row in its partition's cells, as the
        /// production fabric does when that circuit breaks.
        fn reset_cells(&mut self, processor: usize) {
            if self.net.policy == CrossbarPolicy::FixedPriority {
                let p = self.net.inputs;
                self.cells[processor / p].reset_row(processor % p);
            }
        }
    }

    impl ResourceNetwork for CellOracle {
        fn processors(&self) -> usize {
            self.net.processors()
        }

        fn total_resources(&self) -> usize {
            self.net.total_resources()
        }

        fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
            assert_eq!(pending.len(), self.processors(), "pending vector size");
            let mut grants = Vec::new();
            let net = &mut self.net;
            let (p, m, r) = (net.inputs, net.outputs, net.resources_per_bus);
            for (pi, (part, cells)) in net.partitions.iter_mut().zip(&mut self.cells).enumerate() {
                let requests = &pending[pi * p..(pi + 1) * p];
                let n_pending = requests.iter().filter(|&&q| q).count();
                if n_pending == 0 {
                    continue;
                }
                net.counters.attempts += n_pending as u64;
                let available: Vec<bool> = (0..m)
                    .map(|j| {
                        part.pool_up[j] && part.held_by[j].is_none() && part.busy_resources[j] < r
                    })
                    .collect();
                let mut local = Vec::new();
                match net.policy {
                    CrossbarPolicy::FixedPriority => {
                        cells.request_cycle_into(requests, &available, &mut local);
                    }
                    CrossbarPolicy::RandomToken => {
                        let mut procs: Vec<usize> = (0..p).filter(|&l| requests[l]).collect();
                        let mut buses: Vec<usize> = (0..m).filter(|&j| available[j]).collect();
                        rng.shuffle(&mut procs);
                        rng.shuffle(&mut buses);
                        local.extend(
                            procs
                                .into_iter()
                                .zip(buses)
                                .filter(|&(li, lj)| !cells.is_failed(li, lj)),
                        );
                    }
                }
                net.counters.rejections += (n_pending - local.len()) as u64;
                for (li, lj) in local {
                    part.held_by[lj] = Some(li);
                    grants.push(Grant {
                        processor: pi * p + li,
                        port: pi * m + lj,
                    });
                }
            }
            grants
        }

        fn end_transmission(&mut self, grant: Grant) {
            self.net.end_transmission(grant);
            self.reset_cells(grant.processor);
        }

        fn end_service(&mut self, grant: Grant) {
            self.net.end_service(grant);
        }

        fn fail_resource(&mut self, port: usize) -> bool {
            let (p, m) = (self.net.inputs, self.net.outputs);
            let holder = self
                .net
                .partitions
                .get(port / m)
                .and_then(|part| part.held_by[port % m].map(|li| port / m * p + li));
            let accepted = self.net.fail_resource(port);
            if let (true, Some(processor)) = (accepted, holder) {
                self.reset_cells(processor);
            }
            accepted
        }

        fn repair_resource(&mut self, port: usize) -> bool {
            self.net.repair_resource(port)
        }

        fn fail_element(&mut self, element: usize) -> bool {
            let (pi, i, j) = self.cell_of(element);
            let accepted = self.cells.get_mut(pi).is_some_and(|c| c.fail_cell(i, j));
            self.net.counters.element_failures += u64::from(accepted);
            accepted
        }

        fn repair_element(&mut self, element: usize) -> bool {
            let (pi, i, j) = self.cell_of(element);
            let accepted = self.cells.get_mut(pi).is_some_and(|c| c.repair_cell(i, j));
            self.net.counters.element_repairs += u64::from(accepted);
            accepted
        }

        fn fault_elements(&self) -> usize {
            self.net.fault_elements()
        }

        fn take_counters(&mut self) -> NetworkCounters {
            self.net.take_counters()
        }

        fn label(&self) -> &'static str {
            "XBAR cell oracle"
        }
    }

    fn pending(n: usize, set: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in set {
            v[i] = true;
        }
        v
    }

    fn pack(bools: &[bool]) -> Vec<u64> {
        let mut words = vec![0u64; bools.len().div_ceil(64)];
        for (i, &b) in bools.iter().enumerate() {
            if b {
                words[i >> 6] |= 1 << (i & 63);
            }
        }
        words
    }

    /// The packed entry point must be indistinguishable from the unpacked
    /// one: same grants in the same order, same counters, same RNG
    /// consumption — across policies and across the single-partition fast
    /// path vs the multi-partition fallback.
    #[test]
    fn packed_pending_entry_matches_unpacked() {
        for policy in [CrossbarPolicy::FixedPriority, CrossbarPolicy::RandomToken] {
            for parts in [1usize, 2] {
                let p = parts * 8;
                let mut by_bools = CrossbarNetwork::new(parts, 8, 4, 2, policy);
                let mut by_words = CrossbarNetwork::new(parts, 8, 4, 2, policy);
                let mut rng_a = SimRng::new(0xfeed);
                let mut rng_b = SimRng::new(0xfeed);
                let mut pick = SimRng::new(7);
                let mut ga = Vec::new();
                let mut gb = Vec::new();
                let mut held: Vec<Grant> = Vec::new();
                for round in 0..200 {
                    let mut req: Vec<bool> = (0..p).map(|_| pick.chance(0.4)).collect();
                    // A processor holds at most one circuit (assumption (f)):
                    // never re-request one whose grant is still outstanding.
                    for g in &held {
                        req[g.processor] = false;
                    }
                    by_bools.request_cycle_into(&req, &mut rng_a, &mut ga);
                    by_words.request_cycle_pending(
                        PendingSet {
                            bools: &req,
                            words: &pack(&req),
                        },
                        &mut rng_b,
                        &mut gb,
                    );
                    assert_eq!(ga, gb, "round {round} grants diverged");
                    held.extend(ga.iter().copied());
                    // Retire a few circuits so availability keeps churning.
                    while held.len() > 3 {
                        let g = held.remove(0);
                        by_bools.end_transmission(g);
                        by_words.end_transmission(g);
                        by_bools.end_service(g);
                        by_words.end_service(g);
                    }
                }
                assert_eq!(by_bools.take_counters(), by_words.take_counters());
                assert_eq!(
                    rng_a.next_u64(),
                    rng_b.next_u64(),
                    "RNG consumption diverged"
                );
            }
        }
    }

    #[test]
    fn grants_are_maximal_matchings() {
        let mut net = CrossbarNetwork::new(1, 4, 2, 1, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(1);
        let grants = net.request_cycle(&pending(4, &[0, 1, 2, 3]), &mut rng);
        assert_eq!(grants.len(), 2, "two buses, two grants");
    }

    #[test]
    fn bus_held_during_transmission_blocks_its_resources() {
        let mut net = CrossbarNetwork::new(1, 2, 1, 2, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(2, &[0]), &mut rng);
        assert_eq!(g.len(), 1);
        // Bus held: even with a free resource behind it, no second grant.
        assert!(net.request_cycle(&pending(2, &[1]), &mut rng).is_empty());
        net.end_transmission(g[0]);
        // Bus released, one resource busy, one free: grant flows.
        assert_eq!(net.request_cycle(&pending(2, &[1]), &mut rng).len(), 1);
    }

    #[test]
    fn full_port_blocks_until_service_ends() {
        let mut net = CrossbarNetwork::new(1, 2, 1, 1, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(2, &[0]), &mut rng);
        net.end_transmission(g[0]);
        assert!(net.request_cycle(&pending(2, &[1]), &mut rng).is_empty());
        net.end_service(g[0]);
        assert_eq!(net.request_cycle(&pending(2, &[1]), &mut rng).len(), 1);
    }

    #[test]
    fn partitions_are_independent() {
        let mut net = CrossbarNetwork::new(2, 2, 2, 1, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(4, &[0, 2]), &mut rng);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].port / 2, 0, "first grant in partition 0");
        assert_eq!(g[1].port / 2, 1, "second grant in partition 1");
    }

    #[test]
    fn random_token_covers_all_processors() {
        let mut net = CrossbarNetwork::new(1, 3, 1, 1, CrossbarPolicy::RandomToken);
        let mut rng = SimRng::new(5);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let g = net.request_cycle(&pending(3, &[0, 1, 2]), &mut rng);
            assert_eq!(g.len(), 1);
            seen[g[0].processor] = true;
            net.end_transmission(g[0]);
            net.end_service(g[0]);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fixed_priority_is_asymmetric() {
        let mut net = CrossbarNetwork::new(1, 3, 1, 1, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(5);
        for _ in 0..10 {
            let g = net.request_cycle(&pending(3, &[0, 1, 2]), &mut rng);
            assert_eq!(g[0].processor, 0, "low index always wins");
            net.end_transmission(g[0]);
            net.end_service(g[0]);
        }
    }

    #[test]
    fn from_config_checks_kind() {
        let cfg: SystemConfig = "16/16x1x1 SBUS/2".parse().expect("valid");
        assert!(CrossbarNetwork::from_config(&cfg, CrossbarPolicy::FixedPriority).is_err());
        let cfg: SystemConfig = "16/4x4x4 XBAR/2".parse().expect("valid");
        let net =
            CrossbarNetwork::from_config(&cfg, CrossbarPolicy::FixedPriority).expect("xbar config");
        assert_eq!(net.processors(), 16);
        assert_eq!(net.total_resources(), 32);
        assert_eq!(net.request_cycle_gate_delay(), 4 * 8);
    }

    #[test]
    fn failed_pool_advertises_nothing_until_repair() {
        let mut net = CrossbarNetwork::new(1, 2, 1, 2, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(2, &[0]), &mut rng);
        assert_eq!(g.len(), 1);
        // Pool dies mid-transmission: the held bus is released internally.
        assert!(net.fail_resource(0));
        assert!(!net.fail_resource(0), "already down");
        assert!(net.request_cycle(&pending(2, &[1]), &mut rng).is_empty());
        assert!(net.repair_resource(0));
        // Full capacity restored: bus free, both resources free.
        assert_eq!(net.request_cycle(&pending(2, &[1]), &mut rng).len(), 1);
        let c = net.take_counters();
        assert_eq!(c.resource_failures, 1);
        assert_eq!(c.resource_repairs, 1);
    }

    #[test]
    fn failed_cell_masks_crosspoint_under_both_policies() {
        for policy in [CrossbarPolicy::FixedPriority, CrossbarPolicy::RandomToken] {
            let mut net = CrossbarNetwork::new(1, 2, 1, 1, policy);
            let mut rng = SimRng::new(3);
            // Element 0 = cell (0, 0): processor 0 can no longer reach the
            // only bus, but processor 1 still can.
            assert!(net.fail_element(0));
            assert!(!net.fail_element(0), "already failed");
            assert!(net.request_cycle(&pending(2, &[0]), &mut rng).is_empty());
            let g = net.request_cycle(&pending(2, &[1]), &mut rng);
            assert_eq!(g.len(), 1, "{policy:?}");
            assert_eq!(g[0].processor, 1);
            net.end_transmission(g[0]);
            net.end_service(g[0]);
            assert!(net.repair_element(0));
            assert_eq!(net.request_cycle(&pending(2, &[0]), &mut rng).len(), 1);
        }
    }

    #[test]
    fn fault_element_space_covers_every_cell() {
        let net = CrossbarNetwork::new(2, 4, 3, 1, CrossbarPolicy::FixedPriority);
        assert_eq!(net.fault_elements(), 2 * 4 * 3);
        let mut net = net;
        assert!(!net.fail_element(24), "out of range is rejected");
    }

    /// Production network vs the cell oracle, driven through the full
    /// `ResourceNetwork` surface with identical RNG streams: grants,
    /// counters, and fault bookkeeping must match exactly under both
    /// policies, including degraded cell masks and pool failures.
    #[test]
    fn network_matches_cell_oracle_through_the_network_surface() {
        for policy in [CrossbarPolicy::FixedPriority, CrossbarPolicy::RandomToken] {
            let (parts, p, m, r) = (2usize, 3usize, 5usize, 2u32);
            let procs = parts * p;
            let mut bit = CrossbarNetwork::new(parts, p, m, r, policy);
            let mut cells = CellOracle::new(parts, p, m, r, policy);
            let mut rng_a = SimRng::new(97);
            let mut rng_b = SimRng::new(97);
            let mut state = 0xdead_beef_u64 ^ policy as u64;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u32
            };
            let mut live: Vec<Grant> = Vec::new();
            for _ in 0..1_500 {
                match next() % 8 {
                    0..=3 => {
                        let mut busy = vec![false; procs];
                        for g in &live {
                            busy[g.processor] = true;
                        }
                        let pending: Vec<bool> =
                            (0..procs).map(|i| !busy[i] && next() % 2 == 0).collect();
                        let ga = bit.request_cycle(&pending, &mut rng_a);
                        let gb = cells.request_cycle(&pending, &mut rng_b);
                        assert_eq!(ga, gb, "{policy:?}");
                        live.extend(ga);
                    }
                    4 => {
                        if !live.is_empty() {
                            let g = live.swap_remove(next() as usize % live.len());
                            bit.end_transmission(g);
                            cells.end_transmission(g);
                            bit.end_service(g);
                            cells.end_service(g);
                        }
                    }
                    5 => {
                        let e = next() as usize % bit.fault_elements();
                        assert_eq!(bit.fail_element(e), cells.fail_element(e));
                    }
                    6 => {
                        let e = next() as usize % bit.fault_elements();
                        assert_eq!(bit.repair_element(e), cells.repair_element(e));
                    }
                    _ => {
                        let port = next() as usize % (parts * m);
                        if next() % 2 == 0 {
                            assert_eq!(bit.fail_resource(port), cells.fail_resource(port));
                            // The pool clears its held circuit internally;
                            // drop the casualty from our live list too.
                            live.retain(|g| g.port != port);
                        } else {
                            assert_eq!(bit.repair_resource(port), cells.repair_resource(port));
                        }
                    }
                }
            }
            assert_eq!(bit.take_counters(), cells.take_counters(), "{policy:?}");
        }
    }

    /// The whole-DES check: both policies, healthy and under faults, must
    /// yield a bit-identical run on the production network and the oracle.
    #[test]
    fn des_runs_match_cell_oracle() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        for policy in [CrossbarPolicy::FixedPriority, CrossbarPolicy::RandomToken] {
            let net = || CrossbarNetwork::new(2, 4, 3, 2, policy);
            let oracle = || CellOracle::new(2, 4, 3, 2, policy);
            assert_eq!(
                healthy_fingerprint(&mut net()),
                healthy_fingerprint(&mut oracle()),
                "{policy:?} healthy"
            );
            assert_eq!(
                faulted_fingerprint(&mut net()),
                faulted_fingerprint(&mut oracle()),
                "{policy:?} faulted"
            );
        }
    }

    #[test]
    fn counters_accumulate_and_drain() {
        let mut net = CrossbarNetwork::new(1, 3, 1, 1, CrossbarPolicy::FixedPriority);
        let mut rng = SimRng::new(2);
        let _ = net.request_cycle(&pending(3, &[0, 1, 2]), &mut rng);
        let c = net.take_counters();
        assert_eq!(c.attempts, 3);
        assert_eq!(c.rejections, 2);
        assert_eq!(net.take_counters(), NetworkCounters::default());
    }
}
