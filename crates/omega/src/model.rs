//! The Omega RSIN as a simulatable [`ResourceNetwork`].
//!
//! `i` independent `j × j` Omega networks, each scheduling requests with the
//! distributed box protocol of [`OmegaState`]. Circuits hold their links for
//! the duration of the transmission; resources stay busy until service
//! completes; rejected requests stay queued at their processors and re-enter
//! at the next status change (the simulator's next decision epoch).
//!
//! The same network carries the paper's extension for "systems with
//! single-resource requests and multiple types of resources"
//! ([`OmegaNetwork::typed`]): the request signal carries a type number, each
//! output port hosts resources of one type, and the interchange boxes keep
//! one availability register per type per output port. The scheduling
//! overhead grows to `O(t · log₂ N)` for `t` types — visible in the
//! box-visit counters. The paper leaves "the number and placement of each
//! type of resources in the network" open; [`Placement`] provides the two
//! natural layouts so the question can be probed experimentally.

use crate::resolver::{Admission, Circuit, MultistageState, Wiring};
use rsin_core::{Grant, NetworkCounters, PendingSet, ResourceNetwork, SystemConfig};
use rsin_des::SimRng;
use std::collections::HashMap;

/// How resource types are laid out across the output ports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Contiguous blocks: ports `[0, N/t)` host type 0, the next block
    /// type 1, and so on.
    #[default]
    Blocked,
    /// Round-robin: port `p` hosts type `p mod t`.
    Interleaved,
}

impl Placement {
    /// The type hosted by `port` in a network of `size` ports and `types`
    /// types.
    #[must_use]
    pub fn type_of(self, port: usize, size: usize, types: usize) -> usize {
        match self {
            Placement::Blocked => port / (size / types),
            Placement::Interleaved => port % types,
        }
    }
}

/// A partitioned Omega RSIN.
///
/// # Examples
///
/// ```
/// use rsin_core::{ResourceNetwork, SystemConfig};
/// use rsin_omega::{Admission, OmegaNetwork};
///
/// let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse()?;
/// let net = OmegaNetwork::from_config(&cfg, Admission::Simultaneous)?;
/// assert_eq!(net.processors(), 16);
/// assert_eq!(net.total_resources(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OmegaNetwork {
    size: usize,
    resources_per_port: u32,
    /// Resource types hosted (1 unless built by [`OmegaNetwork::typed`]).
    types: usize,
    admission: Admission,
    partitions: Vec<MultistageState>,
    /// Active circuits keyed by global processor index.
    circuits: HashMap<usize, Circuit>,
    counters: NetworkCounters,
    /// Per-partition `(processor, type)` request list, reused across
    /// request cycles.
    requests: Vec<(usize, usize)>,
}

/// Error building an [`OmegaNetwork`] from a config of the wrong kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrongKindError {
    /// The kind found in the configuration.
    pub found: rsin_core::NetworkKind,
}

impl std::fmt::Display for WrongKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected an OMEGA configuration, got {}", self.found)
    }
}

impl std::error::Error for WrongKindError {}

impl OmegaNetwork {
    /// Builds the network described by `config` (kind must be
    /// [`NetworkKind::Omega`](rsin_core::NetworkKind::Omega)).
    ///
    /// # Errors
    ///
    /// [`WrongKindError`] when the configuration names another network type.
    pub fn from_config(
        config: &SystemConfig,
        admission: Admission,
    ) -> Result<Self, WrongKindError> {
        let wiring = match config.kind() {
            rsin_core::NetworkKind::Omega => Wiring::Omega,
            rsin_core::NetworkKind::Cube => Wiring::Cube,
            other => return Err(WrongKindError { found: other }),
        };
        Ok(OmegaNetwork::with_wiring(
            config.networks() as usize,
            config.inputs() as usize,
            config.resources_per_port(),
            admission,
            wiring,
        ))
    }

    /// Builds `partitions` independent `size × size` Omega networks with
    /// `resources_per_port` resources on every output port.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`, `size` is not a power of two ≥ 2, or
    /// `resources_per_port == 0`.
    #[must_use]
    pub fn new(
        partitions: usize,
        size: usize,
        resources_per_port: u32,
        admission: Admission,
    ) -> Self {
        Self::with_wiring(
            partitions,
            size,
            resources_per_port,
            admission,
            Wiring::Omega,
        )
    }

    /// Builds partitions with explicit interstage wiring (Omega or indirect
    /// binary n-cube).
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`, `size` is not a power of two ≥ 2, or
    /// `resources_per_port == 0`.
    #[must_use]
    pub fn with_wiring(
        partitions: usize,
        size: usize,
        resources_per_port: u32,
        admission: Admission,
        wiring: Wiring,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        let parts: Vec<MultistageState> = (0..partitions)
            .map(|_| {
                MultistageState::with_wiring(size, resources_per_port, wiring)
                    .unwrap_or_else(|e| panic!("invalid network size: {e}"))
            })
            .collect();
        OmegaNetwork {
            size,
            resources_per_port,
            types: 1,
            admission,
            partitions: parts,
            circuits: HashMap::new(),
            counters: NetworkCounters::default(),
            requests: Vec::new(),
        }
    }

    /// Builds `partitions` independent `size × size` Omega networks hosting
    /// `types` resource types with `resources_per_port` resources per port,
    /// laid out across the ports by `placement`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsin_core::ResourceNetwork;
    /// use rsin_omega::{Admission, OmegaNetwork, Placement};
    ///
    /// // 8 ports, 2 resources each, split across 2 types.
    /// let net = OmegaNetwork::typed(1, 8, 2, 2, Placement::Interleaved,
    ///                               Admission::Simultaneous);
    /// assert_eq!(net.processors(), 8);
    /// assert_eq!(net.resource_types(), 2);
    /// assert_eq!(net.port_type(5), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`, `size` is not a power of two ≥ 2,
    /// `resources_per_port == 0`, `types == 0`, or `types` does not divide
    /// `size` (so every type gets equal capacity).
    #[must_use]
    pub fn typed(
        partitions: usize,
        size: usize,
        resources_per_port: u32,
        types: usize,
        placement: Placement,
        admission: Admission,
    ) -> Self {
        assert!(types > 0, "need at least one resource type");
        assert!(
            size.is_multiple_of(types),
            "types must divide the port count for equal capacity"
        );
        let mut net = Self::new(partitions, size, resources_per_port, admission);
        let port_types: Vec<usize> = (0..size)
            .map(|p| placement.type_of(p, size, types))
            .collect();
        for part in &mut net.partitions {
            part.set_port_types(&port_types);
        }
        net.types = types;
        net
    }

    /// The interstage wiring of every partition.
    #[must_use]
    pub fn wiring(&self) -> Wiring {
        self.partitions[0].wiring()
    }

    /// Sets the status-freshness regime on every partition (ablation knob).
    pub fn set_status_freshness(&mut self, freshness: crate::resolver::StatusFreshness) {
        for part in &mut self.partitions {
            part.set_status_freshness(freshness);
        }
    }

    /// The same network with every partition's status phase run by the
    /// per-wire reference oracle.
    #[cfg(test)]
    fn reference_oracle(mut self) -> Self {
        for part in &mut self.partitions {
            part.use_reference_oracle();
        }
        self
    }

    /// The admission discipline in force.
    #[must_use]
    pub fn admission(&self) -> Admission {
        self.admission
    }
}

impl ResourceNetwork for OmegaNetwork {
    fn processors(&self) -> usize {
        self.partitions.len() * self.size
    }

    fn total_resources(&self) -> usize {
        self.partitions.len() * self.size * self.resources_per_port as usize
    }

    fn request_cycle_pending(
        &mut self,
        PendingSet { bools, types, .. }: PendingSet<'_>,
        _rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        assert_eq!(bools.len(), self.processors(), "pending vector size");
        let mut requests = std::mem::take(&mut self.requests);
        for (pi, part) in self.partitions.iter_mut().enumerate() {
            let base = pi * self.size;
            requests.clear();
            requests.extend(
                (0..self.size)
                    .filter(|&l| bools[base + l] && !self.circuits.contains_key(&(base + l)))
                    .map(|l| (l, types[base + l])),
            );
            if requests.is_empty() {
                continue;
            }
            self.counters.attempts += requests.len() as u64;
            let res = part.resolve_typed(&requests, self.admission);
            self.counters.boxes_traversed += res.box_visits;
            self.counters.rejections += (res.rejected.len() + res.not_submitted.len()) as u64;
            for circuit in res.granted {
                let proc = base + circuit.processor;
                let port = base + circuit.port;
                self.circuits.insert(proc, circuit);
                out.push(Grant {
                    processor: proc,
                    port,
                });
            }
        }
        self.requests = requests;
    }

    fn resource_types(&self) -> usize {
        self.types
    }

    fn port_type(&self, port: usize) -> usize {
        self.partitions[port / self.size].port_type(port % self.size)
    }

    fn end_transmission(&mut self, grant: Grant) {
        let pi = grant.processor / self.size;
        let circuit = self
            .circuits
            .remove(&grant.processor)
            .expect("transmission ends only on an active circuit");
        let part = &mut self.partitions[pi];
        part.release_circuit(&circuit);
        part.occupy_resource(circuit.port);
        debug_assert_eq!(grant.port, pi * self.size + circuit.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.partitions[grant.port / self.size].release_resource(grant.port % self.size);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        let (pi, lp, size) = (port / self.size, port % self.size, self.size);
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        if !part.fail_port(lp) {
            return false;
        }
        // Tear down every circuit terminating at the dead port (their links
        // free up); the simulator requeues the casualty tasks.
        self.circuits.retain(|&proc, c| {
            let casualty = proc / size == pi && c.port == lp;
            if casualty {
                part.release_circuit(c);
            }
            !casualty
        });
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let part = self.partitions.get_mut(port / self.size);
        let accepted = part.is_some_and(|part| part.repair_port(port % self.size));
        self.counters.resource_repairs += u64::from(accepted);
        accepted
    }

    fn fail_element(&mut self, element: usize) -> bool {
        // Element pi·(stages·N/2) + k·(N/2) + b = interchange box b of
        // stage k in partition pi (fail-open; see `MultistageState::fail_box`).
        let boxes = self.partitions[0].stages() as usize * (self.size / 2);
        let (pi, rem) = (element / boxes, element % boxes);
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        let accepted = part.fail_box((rem / (self.size / 2)) as u32, rem % (self.size / 2));
        if accepted {
            self.counters.element_failures += 1;
        }
        accepted
    }

    fn repair_element(&mut self, element: usize) -> bool {
        let boxes = self.partitions[0].stages() as usize * (self.size / 2);
        let (pi, rem) = (element / boxes, element % boxes);
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        let accepted = part.repair_box((rem / (self.size / 2)) as u32, rem % (self.size / 2));
        if accepted {
            self.counters.element_repairs += 1;
        }
        accepted
    }

    fn fault_elements(&self) -> usize {
        self.partitions.len() * self.partitions[0].stages() as usize * (self.size / 2)
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }

    fn label(&self) -> &'static str {
        match self.wiring() {
            Wiring::Omega => "OMEGA",
            Wiring::Cube => "CUBE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::typed::{simulate_typed, TypedWorkload};
    use rsin_core::{simulate, SimOptions, Workload};

    fn pending(n: usize, set: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in set {
            v[i] = true;
        }
        v
    }

    #[test]
    fn grants_resources_and_tracks_circuits() {
        let mut net = OmegaNetwork::new(1, 8, 1, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(8, &[0, 1]), &mut rng);
        assert_eq!(g.len(), 2);
        // Finish the lifecycles cleanly.
        for grant in g {
            net.end_transmission(grant);
            net.end_service(grant);
        }
    }

    #[test]
    fn partition_offsets_are_applied() {
        let mut net = OmegaNetwork::new(2, 4, 1, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(8, &[5]), &mut rng);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].processor, 5);
        assert!(g[0].port >= 4, "second partition's ports are 4..8");
        net.end_transmission(g[0]);
        net.end_service(g[0]);
    }

    #[test]
    fn saturated_ports_block_until_service() {
        let mut net = OmegaNetwork::new(1, 2, 1, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let g1 = net.request_cycle(&pending(2, &[0]), &mut rng);
        assert_eq!(g1.len(), 1);
        net.end_transmission(g1[0]);
        let g2 = net.request_cycle(&pending(2, &[1]), &mut rng);
        assert_eq!(g2.len(), 1, "second port still free");
        net.end_transmission(g2[0]);
        // Both resources busy: nothing grantable.
        assert!(net.request_cycle(&pending(2, &[0]), &mut rng).is_empty());
        net.end_service(g1[0]);
        assert_eq!(net.request_cycle(&pending(2, &[0]), &mut rng).len(), 1);
    }

    #[test]
    fn from_config_checks_kind_and_dims() {
        let cfg: SystemConfig = "16/1x16x32 XBAR/1".parse().expect("valid");
        assert!(OmegaNetwork::from_config(&cfg, Admission::Simultaneous).is_err());
        let cfg: SystemConfig = "16/8x2x2 OMEGA/2".parse().expect("valid");
        let net = OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("omega");
        assert_eq!(net.processors(), 16);
        assert_eq!(net.total_resources(), 32);
    }

    #[test]
    fn cube_config_builds_and_serves() {
        let cfg: SystemConfig = "16/1x16x16 CUBE/2".parse().expect("valid");
        let mut net = OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("cube");
        use rsin_core::ResourceNetwork as _;
        assert_eq!(net.label(), "CUBE");
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(16, &[0, 5, 9]), &mut rng);
        assert_eq!(g.len(), 3);
        for grant in g {
            net.end_transmission(grant);
            net.end_service(grant);
        }
    }

    #[test]
    fn fail_resource_tears_down_inflight_circuits() {
        let mut net = OmegaNetwork::new(1, 4, 1, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(g.len(), 1);
        // The pool at the granted port dies mid-transmission.
        assert!(net.fail_resource(g[0].port));
        assert!(!net.fail_resource(g[0].port), "already down");
        // Its links were released internally: the same processor can route
        // to one of the three surviving ports immediately.
        let g2 = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(g2.len(), 1);
        assert_ne!(g2[0].port, g[0].port, "dead port advertises nothing");
        assert!(net.repair_resource(g[0].port));
        let c = net.take_counters();
        assert_eq!(c.resource_failures, 1);
        assert_eq!(c.resource_repairs, 1);
    }

    #[test]
    fn element_index_addresses_every_box() {
        // 2 partitions × (log2 8 = 3 stages) × 4 boxes = 24 elements.
        let mut net = OmegaNetwork::new(2, 8, 1, Admission::Simultaneous);
        assert_eq!(net.fault_elements(), 24);
        for e in 0..24 {
            assert!(net.fail_element(e), "element {e} fails once");
            assert!(!net.fail_element(e), "element {e} already failed");
        }
        assert!(!net.fail_element(24), "out of range");
        for e in 0..24 {
            assert!(net.repair_element(e));
        }
        let c = net.take_counters();
        assert_eq!(c.element_failures, 24);
        assert_eq!(c.element_repairs, 24);
    }

    #[test]
    fn failed_boxes_degrade_but_do_not_kill_the_network() {
        let mut net = OmegaNetwork::new(1, 16, 2, Admission::Simultaneous);
        let mut rng = SimRng::new(7);
        // Fail three interchange boxes spread across stages.
        for e in [0, 11, 22] {
            assert!(net.fail_element(e));
        }
        let g = net.request_cycle(&pending(16, &(0..16).collect::<Vec<_>>()), &mut rng);
        assert!(
            !g.is_empty(),
            "distributed scheduling sustains service around dead boxes"
        );
        for grant in g {
            net.end_transmission(grant);
            net.end_service(grant);
        }
    }

    #[test]
    fn counters_include_box_visits() {
        let mut net = OmegaNetwork::new(1, 8, 1, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let _ = net.request_cycle(&pending(8, &[0, 3, 4, 5]), &mut rng);
        let c = net.take_counters();
        assert_eq!(c.attempts, 4);
        assert!(
            c.boxes_traversed >= 12,
            "each served request crosses ≥3 boxes"
        );
    }

    #[test]
    fn placement_layouts() {
        assert_eq!(Placement::Blocked.type_of(0, 8, 2), 0);
        assert_eq!(Placement::Blocked.type_of(3, 8, 2), 0);
        assert_eq!(Placement::Blocked.type_of(4, 8, 2), 1);
        assert_eq!(Placement::Interleaved.type_of(4, 8, 2), 0);
        assert_eq!(Placement::Interleaved.type_of(5, 8, 2), 1);
    }

    #[test]
    fn typed_grants_match_requested_types() {
        let mut net = OmegaNetwork::typed(1, 8, 1, 2, Placement::Blocked, Admission::Simultaneous);
        let mut rng = SimRng::new(1);
        let bools = pending(8, &[0, 3, 5]);
        let mut types = vec![0; 8];
        types[0] = 1;
        types[3] = 0;
        types[5] = 1;
        let words = [0b10_1001];
        let mut grants = Vec::new();
        net.request_cycle_pending(
            PendingSet {
                bools: &bools,
                words: &words,
                types: &types,
            },
            &mut rng,
            &mut grants,
        );
        assert_eq!(grants.len(), 3);
        for g in &grants {
            let expect = match g.processor {
                3 => 0,
                _ => 1,
            };
            assert_eq!(net.port_type(g.port), expect);
            assert_eq!(
                Placement::Blocked.type_of(g.port, 8, 2),
                expect,
                "port {} hosts the wrong type",
                g.port
            );
        }
        for g in grants {
            net.end_transmission(g);
            net.end_service(g);
        }
    }

    #[test]
    fn typed_simulation_end_to_end() {
        let base = Workload::new(0.05, 10.0, 1.0).expect("valid");
        let w = TypedWorkload::new(base, vec![0.5, 0.5]).expect("valid");
        let mut net =
            OmegaNetwork::typed(1, 16, 2, 2, Placement::Interleaved, Admission::Simultaneous);
        let mut rng = SimRng::new(9);
        let opts = SimOptions {
            warmup_tasks: 1_000,
            measured_tasks: 15_000,
        };
        let report = simulate_typed(&mut net, &w, &opts, &mut rng);
        assert_eq!(report.queueing_delay.count(), 15_000);
        assert!(report.per_type_delay[0].count() > 5_000);
        assert!(report.per_type_delay[1].count() > 5_000);
    }

    #[test]
    fn splitting_the_pool_into_types_increases_delay() {
        // Same hardware, same load: one universal type pools 16 ports;
        // two types give each task only 8 candidate ports. Less pooling,
        // more delay.
        let opts = SimOptions {
            warmup_tasks: 2_000,
            measured_tasks: 30_000,
        };
        let base = Workload::new(0.55, 10.0, 1.0).expect("valid");
        let run = |types: usize, mix: Vec<f64>| {
            let w = TypedWorkload::new(base, mix).expect("valid");
            let mut net = OmegaNetwork::typed(
                1,
                16,
                1,
                types,
                Placement::Interleaved,
                Admission::Simultaneous,
            );
            let mut rng = SimRng::new(77);
            simulate_typed(&mut net, &w, &opts, &mut rng).normalized_delay(w.base())
        };
        let pooled = run(1, vec![1.0]);
        let split = run(2, vec![0.5, 0.5]);
        assert!(
            split > pooled,
            "two types ({split}) must queue longer than one pooled type ({pooled})"
        );
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn types_must_divide_ports() {
        let _ = OmegaNetwork::typed(1, 8, 1, 3, Placement::Blocked, Admission::Simultaneous);
    }

    /// A one-type network under a one-type mix is the untyped network: the
    /// typed entry point reports exactly what `simulate` does.
    #[test]
    fn one_type_typed_run_matches_the_plain_run() {
        let base = Workload::new(0.4, 10.0, 1.0).expect("valid");
        let w = TypedWorkload::new(base, vec![1.0]).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 5_000,
        };
        let typed = simulate_typed(
            &mut OmegaNetwork::typed(2, 8, 2, 1, Placement::Blocked, Admission::Staggered),
            &w,
            &opts,
            &mut SimRng::new(11),
        );
        let plain = simulate(
            &mut OmegaNetwork::new(2, 8, 2, Admission::Staggered),
            &base,
            &opts,
            &mut SimRng::new(11),
        );
        assert_eq!(format!("{typed:?}"), format!("{plain:?}"));
    }

    /// The whole-DES check: both wirings and both admissions, healthy and
    /// under faults, must yield a bit-identical run with the bit-sliced
    /// status phase and with the reference oracle.
    #[test]
    fn des_runs_match_reference_oracle() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        for wiring in [Wiring::Omega, Wiring::Cube] {
            for admission in [Admission::Simultaneous, Admission::Staggered] {
                let net = || OmegaNetwork::with_wiring(1, 8, 2, admission, wiring);
                assert_eq!(
                    healthy_fingerprint(&mut net()),
                    healthy_fingerprint(&mut net().reference_oracle()),
                    "{wiring:?}/{admission:?} healthy"
                );
                assert_eq!(
                    faulted_fingerprint(&mut net()),
                    faulted_fingerprint(&mut net().reference_oracle()),
                    "{wiring:?}/{admission:?} faulted"
                );
            }
        }
    }
}
