//! Address-mapping baseline: the conventional Omega network the paper
//! compares against (Section V).
//!
//! Under address mapping a request must carry the address of a *specific*
//! free resource before entering the network — supplied here, as in the
//! prior work the paper cites, by a centralized scheduler that assigns each
//! request a random free resource. The request then routes by destination
//! tag; if any link on its unique path is occupied, the request is blocked
//! and must retry later. The inability to divert to another free resource
//! mid-network is exactly what distributed resource scheduling removes, and
//! is why the paper measures ≈ 0.3 blocking for address mapping versus
//! ≈ 0.15 for the RSIN on an 8×8 network.

use rsin_core::{Grant, NetworkCounters, PendingSet, PortPool, ResourceNetwork, SystemConfig};
use rsin_des::SimRng;
use rsin_topology::{LinkFabric, Multistage, OmegaTopology};

/// A partitioned address-mapped Omega network with a centralized random
/// resource assigner.
#[derive(Debug)]
pub struct AddressMappedOmega {
    topo: OmegaTopology,
    partitions: usize,
    /// Links held by transmitting circuits, one fabric copy per partition.
    fabric: LinkFabric,
    /// Port `l` of partition `pi` is pool `pi·N + l`.
    pool: PortPool,
    /// The partition-local port each processor's circuit holds while it
    /// transmits.
    held: Vec<Option<usize>>,
    counters: NetworkCounters,
}

use crate::model::WrongKindError;

impl AddressMappedOmega {
    /// Builds the baseline for an OMEGA configuration.
    ///
    /// # Errors
    ///
    /// [`WrongKindError`] when the configuration names another network type.
    pub fn from_config(config: &SystemConfig) -> Result<Self, WrongKindError> {
        if config.kind() != rsin_core::NetworkKind::Omega {
            return Err(WrongKindError {
                found: config.kind(),
            });
        }
        Ok(AddressMappedOmega::new(
            config.networks() as usize,
            config.inputs() as usize,
            config.resources_per_port(),
        ))
    }

    /// Builds `partitions` independent `size × size` address-mapped Omega
    /// networks with `resources_per_port` resources per output port.
    ///
    /// # Panics
    ///
    /// Panics if counts are zero or `size` is not a power of two ≥ 2.
    #[must_use]
    pub fn new(partitions: usize, size: usize, resources_per_port: u32) -> Self {
        assert!(partitions > 0, "need at least one partition");
        assert!(
            resources_per_port > 0,
            "resources per port must be positive"
        );
        let topo = OmegaTopology::new(size).unwrap_or_else(|e| panic!("invalid Omega size: {e}"));
        AddressMappedOmega {
            topo,
            partitions,
            fabric: LinkFabric::new(&topo, partitions, 1),
            pool: PortPool::new(partitions * size, resources_per_port),
            held: vec![None; partitions * size],
            counters: NetworkCounters::default(),
        }
    }

    fn size(&self) -> usize {
        self.topo.size()
    }
}

impl ResourceNetwork for AddressMappedOmega {
    fn processors(&self) -> usize {
        self.partitions * self.size()
    }

    fn total_resources(&self) -> usize {
        self.partitions * self.size() * self.pool.capacity() as usize
    }

    fn request_cycle_pending(
        &mut self,
        PendingSet { bools: pending, .. }: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        assert_eq!(pending.len(), self.processors(), "pending vector size");
        let size = self.size();
        for pi in 0..self.partitions {
            let base = pi * size;
            let mut requesters: Vec<usize> = (0..size)
                .filter(|&l| pending[base + l] && self.held[base + l].is_none())
                .collect();
            if requesters.is_empty() {
                continue;
            }
            // The centralized scheduler serves requests in random order and
            // hands each a random free resource port (with capacity left
            // after earlier assignments this cycle).
            rng.shuffle(&mut requesters);
            self.counters.attempts += requesters.len() as u64;
            let mut assigned_ports: Vec<u32> = vec![0; size];
            for &local in &requesters {
                let free_ports: Vec<usize> = (0..size)
                    .filter(|&port| assigned_ports[port] < self.pool.free(base + port))
                    .collect();
                if free_ports.is_empty() {
                    self.counters.rejections += 1;
                    continue;
                }
                let port = free_ports[rng.index(free_ports.len())];
                let route = self.topo.route(local, port);
                if self.fabric.route_free(pi, &route) {
                    self.fabric.claim(pi, &route);
                    assigned_ports[port] += 1;
                    self.counters.boxes_traversed += route.links.len() as u64;
                    self.held[base + local] = Some(port);
                    out.push(Grant {
                        processor: base + local,
                        port: base + port,
                    });
                } else {
                    // Blocked in the network: the request retries later with
                    // a fresh assignment. This is the address-mapping
                    // penalty — no mid-network diversion.
                    self.counters.rejections += 1;
                }
            }
        }
    }

    fn end_transmission(&mut self, grant: Grant) {
        let size = self.size();
        let port = self.held[grant.processor]
            .take()
            .expect("transmission ends only on an active route");
        let route = self.topo.route(grant.processor % size, port);
        self.fabric.release(grant.processor / size, &route);
        self.pool.occupy(grant.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.pool.vacate(grant.port);
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }

    fn label(&self) -> &'static str {
        "OMEGA-AM"
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
    fn single_request_is_always_served_on_empty_network() {
        let mut net = AddressMappedOmega::new(1, 8, 1);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(8, &[3]), &mut rng);
        assert_eq!(g.len(), 1);
        net.end_transmission(g[0]);
        net.end_service(g[0]);
    }

    #[test]
    fn no_free_resource_means_rejection() {
        let mut net = AddressMappedOmega::new(1, 2, 1);
        let mut rng = SimRng::new(2);
        let g1 = net.request_cycle(&pending(2, &[0]), &mut rng);
        net.end_transmission(g1[0]);
        let g2 = net.request_cycle(&pending(2, &[1]), &mut rng);
        net.end_transmission(g2[0]);
        assert!(net.request_cycle(&pending(2, &[0]), &mut rng).is_empty());
        let c = net.take_counters();
        assert!(c.rejections >= 1);
    }

    #[test]
    fn held_links_block_conflicting_routes() {
        // With one resource per port, saturating requests one at a time
        // eventually hits link conflicts that a free network would not have.
        let mut net = AddressMappedOmega::new(1, 8, 1);
        let mut rng = SimRng::new(3);
        let mut total = 0;
        for round in 0..20 {
            let all: Vec<usize> = (0..8).collect();
            let g = net.request_cycle(&pending(8, &all), &mut rng);
            total += g.len();
            if round == 0 {
                assert!(g.len() < 8, "simultaneous random routing should block some");
            }
            for grant in g {
                net.end_transmission(grant);
                net.end_service(grant);
            }
        }
        assert!(total > 0);
    }

    #[test]
    fn from_config_checks_kind() {
        let cfg: SystemConfig = "16/16x1x1 SBUS/2".parse().expect("valid");
        assert!(AddressMappedOmega::from_config(&cfg).is_err());
        let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");
        let net = AddressMappedOmega::from_config(&cfg).expect("omega");
        assert_eq!(net.processors(), 16);
        assert_eq!(net.total_resources(), 32);
    }
}
