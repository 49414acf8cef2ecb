//! The crossbar RSIN as a simulatable [`ResourceNetwork`].
//!
//! `i` independent `j × k` crossbars; every output column is a bus carrying
//! `r` resources. A column advertises availability (`Y_{0,j} = 1`) exactly
//! when its bus is idle **and** at least one of its resources is free; the
//! bit-sliced compilation ([`BitFabric`]) of the gate-level
//! [`CrossbarFabric`](crate::CrossbarFabric) resolves each request cycle.

use crate::bitslice::BitFabric;
use rsin_core::{Grant, NetworkCounters, PendingSet, PortPool, ResourceNetwork, SystemConfig};
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
    /// Packed image of the availability predicate, maintained incrementally:
    /// bit `j` set iff column `j`'s pool [`PortPool::has_free`] and
    /// `held_by[j].is_none()`. The bit-sliced wave runs on it in place (a
    /// held bus is never set, the wave's held-column contract) and the
    /// token policy reads its free buses from it, so no cycle re-derives
    /// the predicate. The cell-by-cell test oracle deliberately re-derives it
    /// from the scalar state, so an incremental-update bug here shows up
    /// as a divergence in the equivalence tests.
    avail: Vec<u64>,
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
    policy: CrossbarPolicy,
    partitions: Vec<Partition>,
    /// Column `j` of partition `pi` is pool `pi·k + j`.
    pool: PortPool,
    counters: NetworkCounters,
    scratch: CycleScratch,
}

/// Reusable per-cycle buffers (the partition being swept), so a request
/// cycle in steady state allocates nothing.
#[derive(Debug, Default)]
struct CycleScratch {
    req_words: Vec<u64>,
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
                        avail,
                    }
                })
                .collect(),
            pool: PortPool::new(partitions * outputs, resources_per_bus),
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

    /// Re-evaluates the availability bit of global output `port` after its
    /// pool or its bus changed.
    fn refresh_avail(&mut self, port: usize) {
        let part = &mut self.partitions[port / self.outputs];
        let lj = port % self.outputs;
        if self.pool.has_free(port) && part.held_by[lj].is_none() {
            rsin_bitslice::set_bit(&mut part.avail, lj);
        } else {
            rsin_bitslice::clear_bit(&mut part.avail, lj);
        }
    }

    /// One partition's request cycle over its pending processors, packed
    /// from lane 0 with a clean tail. Appends grants in global coordinates
    /// and updates the attempt/rejection counters.
    fn partition_cycle(
        &mut self,
        pi: usize,
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
        let CycleScratch {
            procs,
            buses,
            local,
            ..
        } = &mut self.scratch;
        let part = &mut self.partitions[pi];
        match self.policy {
            CrossbarPolicy::FixedPriority => {
                // A held bus is never advertised, so the wave runs in place
                // on the availability image and clears exactly the lanes it
                // grants.
                part.fabric
                    .request_cycle_packed(req_words, &mut part.avail, local);
            }
            CrossbarPolicy::RandomToken => {
                // Token scheme: each free bus captures a random pending
                // processor; equivalently match shuffled lists. A pair
                // that lands on a failed crosspoint cannot connect and
                // is rejected for this cycle. Candidate lists are built
                // in ascending order from the packed lanes.
                procs.clear();
                procs.extend((0..self.inputs).filter(|&l| rsin_bitslice::test_bit(req_words, l)));
                buses.clear();
                buses
                    .extend((0..self.outputs).filter(|&j| rsin_bitslice::test_bit(&part.avail, j)));
                rng.shuffle(procs);
                rng.shuffle(buses);
                local.clear();
                for (&li, &lj) in procs.iter().zip(buses.iter()) {
                    if !part.fabric.is_failed(li, lj) {
                        rsin_bitslice::clear_bit(&mut part.avail, lj);
                        local.push((li, lj));
                    }
                }
            }
        }
        self.counters.rejections += n_pending - local.len() as u64;
        for &(li, lj) in local.iter() {
            // A held bus advertises nothing until its circuit breaks.
            part.held_by[lj] = Some(li);
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
        self.partitions.len() * self.outputs * self.pool.capacity(0) as usize
    }

    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        grants: &mut Vec<Grant>,
    ) {
        assert_eq!(
            pending.words.len(),
            rsin_bitslice::words_for(self.processors()),
            "pending vector size"
        );
        // Each partition's lanes are sliced out of the simulator's packed
        // words; the scratch buffer is moved out for the sweep so each
        // partition call can borrow the rest of `self` mutably.
        let mut req_words = std::mem::take(&mut self.scratch.req_words);
        for pi in 0..self.partitions.len() {
            rsin_bitslice::copy_lanes(pending.words, pi * self.inputs, self.inputs, &mut req_words);
            self.partition_cycle(pi, &req_words, rng, grants);
        }
        self.scratch.req_words = req_words;
    }

    fn end_transmission(&mut self, grant: Grant) {
        let pi = grant.port / self.outputs;
        let lj = grant.port % self.outputs;
        let part = &mut self.partitions[pi];
        let holder = part.held_by[lj].take().expect("bus was held");
        debug_assert_eq!(holder + pi * self.inputs, grant.processor);
        // Break the circuit in the fabric: the holder's reset wave (a no-op
        // under the token policy, whose rows never latch).
        part.fabric.reset_row(holder);
        self.pool.occupy(grant.port);
        self.refresh_avail(grant.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.pool.vacate(grant.port);
        self.refresh_avail(grant.port);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        if !self.pool.fail(port) {
            return false;
        }
        // Break the circuit holding the column's bus, if any; the
        // simulator requeues it with the other casualties.
        let part = &mut self.partitions[port / self.outputs];
        if let Some(holder) = part.held_by[port % self.outputs].take() {
            part.fabric.reset_row(holder);
        }
        self.refresh_avail(port);
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let accepted = self.pool.repair(port);
        if accepted {
            self.refresh_avail(port);
            self.counters.resource_repairs += 1;
        }
        accepted
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

    const POLICIES: [CrossbarPolicy; 2] =
        [CrossbarPolicy::FixedPriority, CrossbarPolicy::RandomToken];

    /// Test oracle: the production bookkeeping (held buses, resource pools,
    /// counters) with every wave run cell by cell on Table-I
    /// [`CrossbarFabric`]s and availability re-derived from `held_by` and
    /// the pool's scalar [`PortPool::has_free`] each cycle — never read
    /// from `Partition::avail` or the pool's packed words, so a missed
    /// incremental update diverges.
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

        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            rng: &mut SimRng,
            grants: &mut Vec<Grant>,
        ) {
            assert_eq!(
                pending.bools.len(),
                self.processors(),
                "pending vector size"
            );
            let net = &mut self.net;
            let (p, m) = (net.inputs, net.outputs);
            for (pi, (part, cells)) in net.partitions.iter_mut().zip(&mut self.cells).enumerate() {
                let requests = &pending.bools[pi * p..(pi + 1) * p];
                let n_pending = requests.iter().filter(|&&q| q).count();
                if n_pending == 0 {
                    continue;
                }
                net.counters.attempts += n_pending as u64;
                let available: Vec<bool> = (0..m)
                    .map(|j| net.pool.has_free(pi * m + j) && part.held_by[j].is_none())
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
        for policy in POLICIES {
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
    /// policies, including degraded cell masks and pool failures, with one
    /// partition and with several.
    #[test]
    fn network_matches_cell_oracle_through_the_network_surface() {
        for (parts, p, m, r) in [(2usize, 3usize, 5usize, 2u32), (1, 8, 4, 2), (2, 8, 4, 2)] {
            for policy in POLICIES {
                let at = format!("{policy:?} {parts}x{p}x{m} r{r}");
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
                            assert_eq!(ga, gb, "{at}");
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
                assert_eq!(bit.take_counters(), cells.take_counters(), "{at}");
            }
        }
    }

    /// The whole-DES check: both policies, healthy and under faults, must
    /// yield a bit-identical run on the production network and the oracle.
    #[test]
    fn des_runs_match_cell_oracle() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        for policy in POLICIES {
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

    /// Healthy and faulted fingerprints of a run at 80 % of what each
    /// partition carries: `m` buses, each at the slower of its transmission
    /// rate and its pool. In the faulted run the first and last pools and
    /// the middle cell flap.
    fn carried_load_fingerprints<N: ResourceNetwork>(
        net: impl Fn() -> N,
        (parts, p, m, r): (usize, usize, usize, u32),
    ) -> (Vec<u64>, Result<Vec<u64>, String>) {
        use rsin_core::equivalence::fingerprint;
        use rsin_core::{simulate, simulate_faulty, FaultOptions, SimOptions, Workload};
        use rsin_des::{FaultPlan, FaultTarget, StochasticFault};
        let lambda = 0.8 * m as f64 * f64::from(r).min(10.0) / p as f64;
        let workload = Workload::new(lambda, 10.0, 1.0).expect("valid workload");
        let opts = SimOptions {
            warmup_tasks: 100,
            measured_tasks: 1_500,
        };
        let healthy = fingerprint(&simulate(
            &mut net(),
            &workload,
            &opts,
            &mut SimRng::new(42),
        ));
        let plan = [
            FaultTarget::Resource(0),
            FaultTarget::Resource(parts * m - 1),
            FaultTarget::Element(parts * p * m / 2),
        ]
        .into_iter()
        .fold(FaultPlan::new(), |plan, target| {
            plan.stochastic(StochasticFault {
                target,
                mtbf: 0.5,
                mttr: 0.2,
            })
        });
        let faulted = simulate_faulty(
            &mut net(),
            &workload,
            &opts,
            &plan,
            &FaultOptions::default(),
            &mut SimRng::new(7),
        )
        .map(|report| {
            let c = report.counters;
            assert!(
                c.resource_failures > 0 && c.element_failures > 0,
                "no fault fired"
            );
            fingerprint(&report)
        })
        .map_err(|e| e.to_string());
        (healthy, faulted)
    }

    /// The whole-DES check on partitions whose lanes straddle pending
    /// words (67, 70 and 100 inputs), where each partition's requests are
    /// sliced out of the simulator's packed words at an unaligned offset.
    #[test]
    fn straddling_partitions_match_cell_oracle() {
        for geometry @ (parts, p, m, r) in [(3, 67, 2, 2), (2, 70, 3, 2), (5, 100, 4, 2)] {
            for policy in POLICIES {
                let net = || CrossbarNetwork::new(parts, p, m, r, policy);
                let oracle = || CellOracle::new(parts, p, m, r, policy);
                let (healthy, faulted) = carried_load_fingerprints(net, geometry);
                let (oracle_healthy, oracle_faulted) = carried_load_fingerprints(oracle, geometry);
                let at = format!("{policy:?} {parts}x{p}x{m} r{r}");
                assert_eq!(healthy, oracle_healthy, "{at} healthy");
                assert!(faulted.is_ok(), "{at}: {faulted:?}");
                assert_eq!(faulted, oracle_faulted, "{at} faulted");
            }
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
