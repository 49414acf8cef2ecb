//! The Omega RSIN as a simulatable [`ResourceNetwork`].
//!
//! `i` independent `j × j` Omega networks, each scheduling requests with the
//! distributed box protocol of [`OmegaState`]. Circuits hold their links for
//! the duration of the transmission; resources stay busy until service
//! completes; rejected requests stay queued at their processors and re-enter
//! at the next status change (the simulator's next decision epoch).

use crate::resolver::{Admission, Circuit, MultistageState, Wiring};
use rsin_core::{Grant, NetworkCounters, ResourceNetwork, SystemConfig};
use rsin_des::SimRng;
use std::collections::HashMap;

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
    admission: Admission,
    partitions: Vec<MultistageState>,
    /// Active circuits keyed by global processor index.
    circuits: HashMap<usize, Circuit>,
    counters: NetworkCounters,
    /// Per-partition requester list, reused across request cycles.
    requesters: Vec<usize>,
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
            admission,
            partitions: parts,
            circuits: HashMap::new(),
            counters: NetworkCounters::default(),
            requesters: Vec::new(),
        }
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

    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.request_cycle_into(pending, rng, &mut grants);
        grants
    }

    fn request_cycle_into(&mut self, pending: &[bool], _rng: &mut SimRng, out: &mut Vec<Grant>) {
        assert_eq!(pending.len(), self.processors(), "pending vector size");
        out.clear();
        let mut requesters = std::mem::take(&mut self.requesters);
        for (pi, part) in self.partitions.iter_mut().enumerate() {
            let base = pi * self.size;
            requesters.clear();
            requesters.extend(
                (0..self.size)
                    .filter(|&l| pending[base + l] && !self.circuits.contains_key(&(base + l))),
            );
            if requesters.is_empty() {
                continue;
            }
            self.counters.attempts += requesters.len() as u64;
            let res = part.resolve(&requesters, self.admission);
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
        self.requesters = requesters;
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
        let pi = grant.port / self.size;
        let lp = grant.port % self.size;
        if self.partitions[pi].port_is_down(lp) {
            // The pool failed and was cleared while this task was in
            // flight; nothing is held any more.
            return;
        }
        self.partitions[pi].release_resource(lp);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        let pi = port / self.size;
        let lp = port % self.size;
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        if !part.fail_port(lp) {
            return false;
        }
        // Per the trait contract: tear down every circuit terminating at
        // the dead port (their links free up); the simulator requeues the
        // casualty tasks. Sorted for deterministic iteration.
        let mut casualties: Vec<usize> = self
            .circuits
            .iter()
            .filter(|&(&proc, c)| proc / self.size == pi && c.port == lp)
            .map(|(&proc, _)| proc)
            .collect();
        casualties.sort_unstable();
        for proc in casualties {
            let circuit = self.circuits.remove(&proc).expect("casualty present");
            part.release_circuit(&circuit);
        }
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let pi = port / self.size;
        let Some(part) = self.partitions.get_mut(pi) else {
            return false;
        };
        let accepted = part.repair_port(port % self.size);
        if accepted {
            self.counters.resource_repairs += 1;
        }
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
