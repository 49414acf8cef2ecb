//! Centralized scheduling baseline for multistage networks (Section V's
//! complexity comparison).
//!
//! A centralized scheduler serves requests *sequentially*: a priority
//! circuit finds a free resource in `O(log₂ m)` gate delays and the network
//! switches are set in `O(log₂ N)`; but because the network blocks, "O(N)
//! trials have to be made before a successful connection can be
//! established. The delay for servicing N requests is thus O(N²·log₂ N)."
//! The distributed algorithm services *all* requests in `O(log₂ N)` —
//! independent of how many processors are requesting.
//!
//! [`SequentialScheduler`] makes the claim executable: it serves a request
//! batch exactly as the baseline would — request order, free resources
//! scanned in priority order, one routing trial per candidate — and counts
//! both the trials and the gate-delay bill.

use rsin_core::{Grant, NetworkCounters, PendingSet, PortPool, ResourceNetwork};
use rsin_des::SimRng;
use rsin_topology::{LinkFabric, Multistage, OmegaTopology};

/// A sequential (centralized) scheduler over an `N × N` Omega network.
#[derive(Clone, Debug)]
pub struct SequentialScheduler {
    topo: OmegaTopology,
}

/// What serving a batch sequentially cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SequentialOutcome {
    /// Granted (processor, port) pairs.
    pub granted: Vec<(usize, usize)>,
    /// Total candidate-resource trials (route attempts) performed.
    pub trials: u64,
    /// Total gate delays: each trial pays the priority-circuit search plus
    /// the switch-setting decode.
    pub gate_delays: u64,
}

impl SequentialScheduler {
    /// Builds a scheduler for an `size × size` Omega network.
    ///
    /// # Errors
    ///
    /// [`rsin_topology::TopologyError`] unless `size` is a power of two ≥ 2.
    pub fn new(size: usize) -> Result<Self, rsin_topology::TopologyError> {
        Ok(SequentialScheduler {
            topo: OmegaTopology::new(size)?,
        })
    }

    /// Gate delays per trial: `O(log₂ m)` to find a free resource plus
    /// `O(log₂ N)` to set the switches.
    #[must_use]
    pub fn per_trial_gate_delay(&self) -> u64 {
        2 * u64::from(self.topo.stages())
    }

    /// Worst-case gate delays to serve `n` requests: every request may try
    /// all `N` resources — the paper's `O(N²·log₂ N)` bound at `n = N`.
    #[must_use]
    pub fn worst_case_gate_delay(&self, n: usize) -> u64 {
        n as u64 * self.topo.size() as u64 * self.per_trial_gate_delay()
    }

    /// Gate delays for the *distributed* algorithm to resolve any batch:
    /// the status/request waves cross `log₂ N` stages of boxes, each
    /// costing `O(r·log₂ r)` with `r = 2`, independent of the batch size.
    #[must_use]
    pub fn distributed_gate_delay(&self) -> u64 {
        // 2 input-ports × log2(2) OR-levels + O(1) control, per stage.
        4 * u64::from(self.topo.stages())
    }

    /// Serves `requesters` sequentially against `free` resource ports on an
    /// otherwise idle network, counting trials. Each request scans the
    /// remaining free ports in priority (ascending) order and takes the
    /// first whose route avoids all circuits granted so far.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for the network.
    #[must_use]
    pub fn serve(&self, requesters: &[usize], free: &[usize]) -> SequentialOutcome {
        self.serve_with_held(requesters, free, &mut LinkFabric::new(&self.topo, 1, 1))
    }

    /// Like [`SequentialScheduler::serve`], but the circuits `held` carries
    /// are already established (in-flight transmissions): a candidate
    /// route on any of their links costs a trial and is skipped. Every
    /// granted circuit is claimed in `held`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range for the network.
    #[must_use]
    pub fn serve_with_held(
        &self,
        requesters: &[usize],
        free: &[usize],
        held: &mut LinkFabric,
    ) -> SequentialOutcome {
        let mut available: Vec<usize> = {
            let mut f = free.to_vec();
            f.sort_unstable();
            f
        };
        let mut granted = Vec::new();
        let mut trials: u64 = 0;
        for &p in requesters {
            let mut taken = None;
            for (slot, &port) in available.iter().enumerate() {
                trials += 1;
                let route = self.topo.route(p, port);
                if held.route_free(0, &route) {
                    held.claim(0, &route);
                    granted.push((p, port));
                    taken = Some(slot);
                    break;
                }
            }
            if let Some(slot) = taken {
                available.remove(slot);
            }
        }
        SequentialOutcome {
            granted,
            trials,
            gate_delays: trials * self.per_trial_gate_delay(),
        }
    }
}

/// The centralized-scheduler Omega RSIN: the same `N × N` circuit-switched
/// fabric as [`OmegaNetwork`](crate::OmegaNetwork), but every allocation
/// funnels through one [`SequentialScheduler`] — the paper's Section V
/// baseline made simulatable, and the fault study's single point of
/// failure.
///
/// Fault model: element 0 is the scheduler itself. While it is dead no new
/// circuit is established *anywhere* (in-flight transmissions complete —
/// fail-open — but delivered throughput collapses to zero until repair).
/// Resource-pool faults behave as in the distributed network.
///
/// # Examples
///
/// ```
/// use rsin_core::ResourceNetwork;
/// use rsin_omega::CentralOmegaNetwork;
///
/// let mut net = CentralOmegaNetwork::new(8, 2)?;
/// assert_eq!(net.processors(), 8);
/// assert_eq!(net.fault_elements(), 1, "the scheduler is the only element");
/// assert!(net.fail_element(0));
/// # Ok::<(), rsin_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct CentralOmegaNetwork {
    scheduler: SequentialScheduler,
    scheduler_up: bool,
    pool: PortPool,
    /// Links held by in-flight transmissions.
    fabric: LinkFabric,
    /// The port each processor's circuit holds while it transmits.
    transmitting: Vec<Option<usize>>,
    counters: NetworkCounters,
}

impl CentralOmegaNetwork {
    /// Builds a centrally scheduled `size × size` Omega RSIN with
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
        assert!(
            resources_per_port > 0,
            "resources per port must be positive"
        );
        let scheduler = SequentialScheduler::new(size)?;
        Ok(CentralOmegaNetwork {
            fabric: LinkFabric::new(&scheduler.topo, 1, 1),
            scheduler,
            scheduler_up: true,
            pool: PortPool::new(size, resources_per_port),
            transmitting: vec![None; size],
            counters: NetworkCounters::default(),
        })
    }

    /// Whether the central scheduler is currently operational.
    #[must_use]
    pub fn scheduler_up(&self) -> bool {
        self.scheduler_up
    }

    fn size(&self) -> usize {
        self.scheduler.topo.size()
    }

    /// Tears down `processor`'s circuit, returning its links to the fabric
    /// and the port it ended at.
    fn release(&mut self, processor: usize) -> usize {
        let port = self.transmitting[processor]
            .take()
            .expect("transmission ends only on an active circuit");
        let route = self.scheduler.topo.route(processor, port);
        self.fabric.release(0, &route);
        port
    }
}

impl ResourceNetwork for CentralOmegaNetwork {
    fn processors(&self) -> usize {
        self.size()
    }

    fn total_resources(&self) -> usize {
        self.size() * self.pool.capacity() as usize
    }

    fn request_cycle_pending(
        &mut self,
        PendingSet { bools: pending, .. }: PendingSet<'_>,
        _rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        assert_eq!(pending.len(), self.processors(), "pending vector size");
        let requesters: Vec<usize> = (0..self.size())
            .filter(|&p| pending[p] && self.transmitting[p].is_none())
            .collect();
        if requesters.is_empty() {
            return;
        }
        self.counters.attempts += requesters.len() as u64;
        if !self.scheduler_up {
            // Scheduler down: every request stalls at the scheduler's
            // doorstep. Nothing is allocated anywhere in the system.
            self.counters.rejections += requesters.len() as u64;
            return;
        }
        let free: Vec<usize> = (0..self.size())
            .filter(|&j| self.pool.has_free(j))
            .collect();
        let served = self
            .scheduler
            .serve_with_held(&requesters, &free, &mut self.fabric);
        self.counters.rejections += requesters.len() as u64 - served.granted.len() as u64;
        out.extend(served.granted.into_iter().map(|(p, port)| {
            self.transmitting[p] = Some(port);
            Grant { processor: p, port }
        }));
    }

    fn end_transmission(&mut self, grant: Grant) {
        let port = self.release(grant.processor);
        debug_assert_eq!(port, grant.port);
        self.pool.occupy(grant.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.pool.vacate(grant.port);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        if !self.pool.fail(port) {
            return false;
        }
        // Tear down in-flight circuits terminating at the dead port; the
        // simulator requeues the casualties.
        for processor in 0..self.size() {
            if self.transmitting[processor] == Some(port) {
                self.release(processor);
            }
        }
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let accepted = self.pool.repair(port);
        self.counters.resource_repairs += u64::from(accepted);
        accepted
    }

    fn fail_element(&mut self, element: usize) -> bool {
        if element != 0 || !self.scheduler_up {
            return false;
        }
        self.scheduler_up = false;
        self.counters.element_failures += 1;
        true
    }

    fn repair_element(&mut self, element: usize) -> bool {
        if element != 0 || self.scheduler_up {
            return false;
        }
        self.scheduler_up = true;
        self.counters.element_repairs += 1;
        true
    }

    fn fault_elements(&self) -> usize {
        1
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }

    fn label(&self) -> &'static str {
        "C-OMEGA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_des::SimRng;

    #[test]
    fn distributed_beats_centralized_worst_case_and_gap_grows() {
        let mut prev_ratio = 0.0;
        for size in [8usize, 16, 32, 64] {
            let s = SequentialScheduler::new(size).expect("power of two");
            let central = s.worst_case_gate_delay(size);
            let distributed = s.distributed_gate_delay();
            let ratio = central as f64 / distributed as f64;
            assert!(ratio > 1.0, "N={size}: centralized must be slower");
            assert!(ratio > prev_ratio, "the gap must widen with N");
            prev_ratio = ratio;
        }
    }

    #[test]
    fn sequential_service_counts_trials() {
        let s = SequentialScheduler::new(8).expect("8x8");
        // Everything free, everyone requesting: the first request succeeds
        // on trial 1; later ones may need retries past blocked routes.
        let all: Vec<usize> = (0..8).collect();
        let out = s.serve(&all, &all);
        assert!(out.trials >= 8, "at least one trial per request");
        assert_eq!(out.gate_delays, out.trials * s.per_trial_gate_delay());
        assert!(!out.granted.is_empty());
    }

    #[test]
    fn trials_grow_superlinearly_with_network_size() {
        // The executable version of the O(N²) trial bound: average trials
        // per request grows with N for full random batches.
        let mut rng = SimRng::new(11);
        let mut per_request = Vec::new();
        for size in [8usize, 32] {
            let s = SequentialScheduler::new(size).expect("power of two");
            let mut total = 0u64;
            let rounds = 40;
            for _ in 0..rounds {
                let mut requesters: Vec<usize> = (0..size).collect();
                rng.shuffle(&mut requesters);
                let free: Vec<usize> = (0..size).collect();
                total += s.serve(&requesters, &free).trials;
            }
            per_request.push(total as f64 / (rounds * size) as f64);
        }
        assert!(
            per_request[1] > per_request[0],
            "trials/request must grow with N: {per_request:?}"
        );
    }

    #[test]
    fn grants_are_conflict_free_and_within_inputs() {
        let s = SequentialScheduler::new(8).expect("8x8");
        let out = s.serve(&[0, 3, 5], &[1, 2, 6, 7]);
        assert!(out.granted.len() <= 3);
        for &(p, port) in &out.granted {
            assert!([0, 3, 5].contains(&p));
            assert!([1, 2, 6, 7].contains(&port));
        }
        // Distinct ports.
        let mut ports: Vec<usize> = out.granted.iter().map(|&(_, port)| port).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), out.granted.len());
    }

    #[test]
    fn rejects_bad_size() {
        assert!(SequentialScheduler::new(6).is_err());
    }

    // ---- CentralOmegaNetwork ---------------------------------------------

    fn pending(n: usize, set: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in set {
            v[i] = true;
        }
        v
    }

    #[test]
    fn central_network_runs_the_task_lifecycle() {
        let mut net = CentralOmegaNetwork::new(8, 1).expect("8x8");
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(8, &[0, 3, 5]), &mut rng);
        assert_eq!(g.len(), 3);
        for grant in g {
            net.end_transmission(grant);
            net.end_service(grant);
        }
    }

    #[test]
    fn scheduler_death_stops_all_allocation_until_repair() {
        let mut net = CentralOmegaNetwork::new(8, 2).expect("8x8");
        let mut rng = SimRng::new(1);
        assert!(net.fail_element(0));
        assert!(!net.fail_element(0), "already dead");
        // Plenty of free resources, but no scheduler: nothing is granted.
        let all: Vec<usize> = (0..8).collect();
        assert!(net.request_cycle(&pending(8, &all), &mut rng).is_empty());
        assert!(net.repair_element(0));
        assert_eq!(net.request_cycle(&pending(8, &all), &mut rng).len(), 8);
        let c = net.take_counters();
        assert_eq!(c.element_failures, 1);
        assert_eq!(c.element_repairs, 1);
        assert_eq!(c.rejections, 8, "one rejection per stalled request");
    }

    #[test]
    fn scheduler_death_is_fail_open_for_inflight_work() {
        let mut net = CentralOmegaNetwork::new(4, 1).expect("4x4");
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(4, &[2]), &mut rng);
        assert_eq!(g.len(), 1);
        net.fail_element(0);
        // The established circuit still completes its lifecycle.
        net.end_transmission(g[0]);
        net.end_service(g[0]);
    }

    #[test]
    fn central_resource_faults_mirror_the_distributed_contract() {
        let mut net = CentralOmegaNetwork::new(4, 1).expect("4x4");
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(g.len(), 1);
        assert!(net.fail_resource(g[0].port));
        // Casualty circuit released internally; the dead port is skipped.
        let g2 = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(g2.len(), 1);
        assert_ne!(g2[0].port, g[0].port);
        assert!(net.repair_resource(g[0].port));
        assert!(!net.repair_resource(g[0].port), "already up");
        assert!(!net.fail_resource(99), "out of range rejected");
    }

    #[test]
    fn resource_fault_teardown_returns_the_circuit_links() {
        // 4×4 Omega: 0→0 and 2→1 share the stage-0 link on wire 0.
        let topo = OmegaTopology::new(4).expect("4x4");
        assert!(topo.route(0, 0).conflicts_with(&topo.route(2, 1)));
        let mut net = CentralOmegaNetwork::new(4, 1).expect("4x4");
        let mut rng = SimRng::new(1);
        assert!(net.fail_resource(2) && net.fail_resource(3));
        let g = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(
            g,
            [Grant {
                processor: 0,
                port: 0
            }]
        );
        // Killing port 0 mid-transmission tears the circuit down. Port 1
        // is the only one left, and its one route from processor 2 runs
        // over the torn-down circuit's link: a grant proves it came back.
        assert!(net.fail_resource(0));
        let g = net.request_cycle(&pending(4, &[2]), &mut rng);
        assert_eq!(
            g,
            [Grant {
                processor: 2,
                port: 1
            }]
        );
        net.end_transmission(g[0]);
        assert!(net.fabric.is_idle());
    }

    #[test]
    fn in_flight_routes_block_conflicting_central_grants() {
        // With every port's route from processor 0 held, a second batch must
        // route around the held links — serve_with_held sees them.
        let mut net = CentralOmegaNetwork::new(4, 2).expect("4x4");
        let mut rng = SimRng::new(1);
        let g1 = net.request_cycle(&pending(4, &[0]), &mut rng);
        assert_eq!(g1.len(), 1);
        // Processor 0 is mid-transmission: its own re-request is ignored,
        // other processors may still be served.
        let g2 = net.request_cycle(&pending(4, &[0, 1]), &mut rng);
        assert_eq!(g2.len(), 1);
        assert_eq!(g2[0].processor, 1);
    }
}
