//! DES models of the composite topologies — the simulation fallback the
//! SLO evaluator uses where no analytic chain exists.
//!
//! Both models implement [`ResourceNetwork`] over link-level circuit
//! switching on an [`OmegaTopology`]: a request claims every interstage
//! link of its destination-tag route (respecting each link's lane
//! capacity), holds them through transmission, and releases them when
//! service begins — the same lifecycle the classic Omega model follows,
//! with two structural twists:
//!
//! * [`ClusteredXbarNet`] concentrates `j_c` processors per cluster onto
//!   `u` uplink trunks through a nonblocking crossbar, so at most `u`
//!   circuits per cluster are in flight and the core fabric is smaller
//!   than `p`.
//! * [`MultiLaneOmegaNet`] gives every link a lane capacity > 1, so two
//!   circuits sharing a link no longer conflict until the lanes fill.
//!
//! Scheduling is deterministic (no RNG draws): processors are scanned from
//! a rotating start each cycle, and each grants the first destination port
//! with a free resource and a free route, also scanned from a rotating
//! start. The rotation keeps long-run fairness without consuming
//! simulation randomness, so replicated runs stay a pure function of the
//! replication seed.

use crate::topo::{ClusteredXbar, MultiLaneOmega};
use rsin_core::{Grant, NetworkCounters, ResourceNetwork};
use rsin_des::SimRng;
use rsin_topology::{Multistage, OmegaTopology, Route};
use std::collections::HashMap;

/// Link-occupancy state of one (or several) Omega fabrics, with a lane
/// capacity per link.
#[derive(Clone, Debug)]
struct LinkFabric {
    topo: OmegaTopology,
    size: usize,
    lanes: u8,
    /// Occupancy per copy, flattened `[stage][wire]`.
    load: Vec<Vec<u8>>,
}

impl LinkFabric {
    fn new(copies: usize, size: usize, lanes: u8) -> Self {
        let topo = OmegaTopology::new(size).expect("validated power-of-two size");
        let stages = topo.stages() as usize;
        LinkFabric {
            topo,
            size,
            lanes,
            load: vec![vec![0u8; stages * size]; copies],
        }
    }

    fn slot(&self, link: rsin_topology::Link) -> usize {
        link.stage as usize * self.size + link.wire
    }

    fn route_free(&self, copy: usize, route: &Route) -> bool {
        route
            .links
            .iter()
            .all(|&l| self.load[copy][self.slot(l)] < self.lanes)
    }

    fn claim(&mut self, copy: usize, route: &Route) {
        for &l in &route.links {
            let s = self.slot(l);
            self.load[copy][s] += 1;
        }
    }

    fn release(&mut self, copy: usize, route: &Route) {
        for &l in &route.links {
            let s = self.slot(l);
            debug_assert!(self.load[copy][s] > 0, "releasing a free link");
            self.load[copy][s] -= 1;
        }
    }
}

/// One in-flight circuit: where it terminates and what it still holds.
#[derive(Clone, Debug)]
struct Circuit {
    /// Global output port.
    port: usize,
    /// Fabric copy the route runs through.
    copy: usize,
    /// The held route; emptied once transmission ends (links released).
    route: Option<Route>,
    /// Uplink slot held through transmission (clustered model only).
    uplink: Option<usize>,
}

/// The state both composites share: link fabric, port pools, uplink
/// slots, the circuit table, the rotating scan start and the counters.
/// Each model adds only its own placement rule.
#[derive(Clone, Debug)]
struct CircuitTable {
    fabric: LinkFabric,
    resources_per_port: u32,
    busy: Vec<u32>,
    up: Vec<bool>,
    /// One flag per core input slot; cluster `c` owns `[c*u, (c+1)*u)`.
    /// Empty for the multi-lane model, which has no uplinks.
    uplink_used: Vec<bool>,
    circuits: HashMap<usize, Circuit>,
    rotate: usize,
    counters: NetworkCounters,
}

impl CircuitTable {
    fn new(fabric: LinkFabric, ports: usize, resources_per_port: u32, uplinks: usize) -> Self {
        CircuitTable {
            fabric,
            resources_per_port,
            busy: vec![0; ports],
            up: vec![true; ports],
            uplink_used: vec![false; uplinks],
            circuits: HashMap::new(),
            rotate: 0,
            counters: NetworkCounters::default(),
        }
    }

    fn has_free(&self, port: usize) -> bool {
        self.up[port] && self.busy[port] < self.resources_per_port
    }

    /// Scans the pending processors without a circuit from a rotating
    /// start, offering each to `place`.
    fn request_cycle(
        &mut self,
        pending: &[bool],
        mut place: impl FnMut(&mut Self, usize) -> Option<Grant>,
    ) -> Vec<Grant> {
        let p = pending.len();
        let mut grants = Vec::new();
        self.rotate = self.rotate.wrapping_add(1);
        for step in 0..p {
            let proc = (self.rotate + step) % p;
            if !pending[proc] || self.circuits.contains_key(&proc) {
                continue;
            }
            self.counters.attempts += 1;
            match place(self, proc) {
                Some(g) => grants.push(g),
                None => self.counters.rejections += 1,
            }
        }
        grants
    }

    /// Establishes `processor`'s circuit over a free `route` to `port`.
    fn connect(
        &mut self,
        processor: usize,
        port: usize,
        copy: usize,
        route: Route,
        uplink: Option<usize>,
    ) -> Grant {
        self.fabric.claim(copy, &route);
        self.counters.boxes_traversed += route.links.len() as u64;
        if let Some(u) = uplink {
            self.uplink_used[u] = true;
        }
        self.busy[port] += 1;
        self.circuits.insert(
            processor,
            Circuit {
                port,
                copy,
                route: Some(route),
                uplink,
            },
        );
        Grant { processor, port }
    }

    /// Frees the links and uplink `c` still holds.
    fn release_links(fabric: &mut LinkFabric, uplink_used: &mut [bool], c: &mut Circuit) {
        if let Some(route) = c.route.take() {
            fabric.release(c.copy, &route);
        }
        if let Some(uplink) = c.uplink.take() {
            uplink_used[uplink] = false;
        }
    }

    fn end_transmission(&mut self, grant: Grant) {
        let c = self
            .circuits
            .get_mut(&grant.processor)
            .expect("transmission ends on a held circuit");
        Self::release_links(&mut self.fabric, &mut self.uplink_used, c);
    }

    fn end_service(&mut self, grant: Grant) {
        let c = self
            .circuits
            .remove(&grant.processor)
            .expect("service ends on a held circuit");
        // A port failure zeroes its busy count and drops its circuits, so
        // a straggling end_service for it must not underflow.
        if self.busy[c.port] > 0 {
            self.busy[c.port] -= 1;
        }
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        if port >= self.up.len() || !self.up[port] {
            return false;
        }
        self.up[port] = false;
        self.busy[port] = 0;
        self.counters.resource_failures += 1;
        // Drop every circuit terminating at the port, releasing whatever
        // it still holds; the simulator requeues the casualties.
        let (fabric, uplink_used) = (&mut self.fabric, &mut self.uplink_used);
        self.circuits.retain(|_, c| {
            if c.port == port {
                Self::release_links(fabric, uplink_used, c);
            }
            c.port != port
        });
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        if port >= self.up.len() || self.up[port] {
            return false;
        }
        self.up[port] = true;
        self.counters.resource_repairs += 1;
        true
    }
}

/// Clustered crossbars feeding a shared Omega core (see module docs).
#[derive(Clone, Debug)]
pub struct ClusteredXbarNet {
    spec: ClusteredXbar,
    table: CircuitTable,
}

impl ClusteredXbarNet {
    /// Builds the network for a validated clustered topology.
    #[must_use]
    pub fn new(spec: ClusteredXbar) -> Self {
        let s = spec.core_size() as usize;
        ClusteredXbarNet {
            spec,
            table: CircuitTable::new(LinkFabric::new(1, s, 1), s, spec.resources_per_port(), s),
        }
    }

    /// Tries to place one processor's request; returns the grant on
    /// success.
    fn try_place(spec: ClusteredXbar, t: &mut CircuitTable, processor: usize) -> Option<Grant> {
        let u = spec.uplinks() as usize;
        let cluster = processor / spec.cluster_inputs() as usize;
        let s = spec.core_size() as usize;
        let base = cluster * u;
        // The cluster crossbar is nonblocking: any free uplink slot serves.
        let free_uplinks: Vec<usize> = (base..base + u).filter(|&i| !t.uplink_used[i]).collect();
        if free_uplinks.is_empty() {
            return None;
        }
        // Scan destinations from the rotating start; for each port with a
        // free resource, try every free uplink until a route fits.
        for step in 0..s {
            let port = (t.rotate + step) % s;
            if !t.has_free(port) {
                continue;
            }
            for &uplink in &free_uplinks {
                let route = t.fabric.topo.route(uplink, port);
                if t.fabric.route_free(0, &route) {
                    return Some(t.connect(processor, port, 0, route, Some(uplink)));
                }
            }
        }
        None
    }
}

impl ResourceNetwork for ClusteredXbarNet {
    fn processors(&self) -> usize {
        (self.spec.clusters() * self.spec.cluster_inputs()) as usize
    }

    fn total_resources(&self) -> usize {
        (self.spec.core_size() * self.spec.resources_per_port()) as usize
    }

    fn request_cycle(&mut self, pending: &[bool], _rng: &mut SimRng) -> Vec<Grant> {
        let spec = self.spec;
        self.table
            .request_cycle(pending, |t, proc| Self::try_place(spec, t, proc))
    }

    fn end_transmission(&mut self, grant: Grant) {
        self.table.end_transmission(grant);
    }

    fn end_service(&mut self, grant: Grant) {
        self.table.end_service(grant);
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.table.counters)
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        self.table.fail_resource(port)
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        self.table.repair_resource(port)
    }

    fn label(&self) -> &'static str {
        "CLX"
    }
}

/// A multi-lane Omega fabric (see module docs).
#[derive(Clone, Debug)]
pub struct MultiLaneOmegaNet {
    spec: MultiLaneOmega,
    table: CircuitTable,
}

impl MultiLaneOmegaNet {
    /// Builds the network for a validated multi-lane topology.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > 8` (excluded by the topology's constructor).
    #[must_use]
    pub fn new(spec: MultiLaneOmega) -> Self {
        let size = spec.size() as usize;
        let copies = spec.networks() as usize;
        let lanes = u8::try_from(spec.lanes()).expect("lanes validated <= 8");
        let fabric = LinkFabric::new(copies, size, lanes);
        MultiLaneOmegaNet {
            spec,
            table: CircuitTable::new(fabric, copies * size, spec.resources_per_port(), 0),
        }
    }

    fn try_place(spec: MultiLaneOmega, t: &mut CircuitTable, processor: usize) -> Option<Grant> {
        let size = spec.size() as usize;
        let copy = processor / size;
        let src = processor % size;
        for step in 0..size {
            let local = (t.rotate + step) % size;
            let port = copy * size + local;
            if !t.has_free(port) {
                continue;
            }
            let route = t.fabric.topo.route(src, local);
            if t.fabric.route_free(copy, &route) {
                return Some(t.connect(processor, port, copy, route, None));
            }
        }
        None
    }
}

impl ResourceNetwork for MultiLaneOmegaNet {
    fn processors(&self) -> usize {
        (self.spec.networks() * self.spec.size()) as usize
    }

    fn total_resources(&self) -> usize {
        (self.spec.networks() * self.spec.size() * self.spec.resources_per_port()) as usize
    }

    fn request_cycle(&mut self, pending: &[bool], _rng: &mut SimRng) -> Vec<Grant> {
        let spec = self.spec;
        self.table
            .request_cycle(pending, |t, proc| Self::try_place(spec, t, proc))
    }

    fn end_transmission(&mut self, grant: Grant) {
        self.table.end_transmission(grant);
    }

    fn end_service(&mut self, grant: Grant) {
        self.table.end_service(grant);
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.table.counters)
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        self.table.fail_resource(port)
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        self.table.repair_resource(port)
    }

    fn label(&self) -> &'static str {
        "MLOMEGA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_cycle(net: &mut dyn ResourceNetwork, pending: &[bool]) -> Vec<Grant> {
        let mut rng = SimRng::new(7);
        net.request_cycle(pending, &mut rng)
    }

    #[test]
    fn clustered_concentration_caps_in_flight_circuits_per_cluster() {
        // 2 clusters of 4 procs, 1 uplink each -> 2-port core: at most one
        // circuit per cluster regardless of demand.
        let spec = ClusteredXbar::new(2, 4, 1, 4).expect("valid");
        let mut net = ClusteredXbarNet::new(spec);
        let pending = vec![true; 8];
        let grants = drive_cycle(&mut net, &pending);
        assert_eq!(grants.len(), 2, "one uplink per cluster");
        let more = drive_cycle(&mut net, &pending);
        assert!(more.is_empty(), "uplinks are saturated");
        // Finishing one transmission frees the uplink for a clustermate.
        net.end_transmission(grants[0]);
        let refill = drive_cycle(&mut net, &pending);
        assert_eq!(refill.len(), 1);
        net.end_service(grants[0]);
    }

    #[test]
    fn multilane_lanes_lift_link_conflicts() {
        // In a 4-port Omega, sources 0 and 1 to the same-box destinations
        // share the stage-0 output link region under heavy demand; with
        // enough lanes every processor can hold a circuit at once.
        let lanes2 = MultiLaneOmega::new(1, 4, 4, 1).expect("valid");
        let mut net = MultiLaneOmegaNet::new(lanes2);
        let pending = vec![true; 4];
        let grants = drive_cycle(&mut net, &pending);
        assert_eq!(grants.len(), 4, "4 lanes make the fabric nonblocking");

        let lanes1 = MultiLaneOmega::new(1, 4, 1, 1).expect("valid");
        let mut net1 = MultiLaneOmegaNet::new(lanes1);
        let g1 = drive_cycle(&mut net1, &pending);
        assert!(
            g1.len() >= 2,
            "distinct ports with free links must still connect"
        );
        assert!(g1.len() <= 4);
    }

    #[test]
    fn grants_never_double_and_release_restores_capacity() {
        let spec = MultiLaneOmega::new(2, 4, 2, 1).expect("valid");
        let mut net = MultiLaneOmegaNet::new(spec);
        let pending = vec![true; 8];
        let grants = drive_cycle(&mut net, &pending);
        let mut seen = std::collections::HashSet::new();
        for g in &grants {
            assert!(seen.insert(g.processor), "double grant for {}", g.processor);
        }
        // Full lifecycle: all capacity returns.
        for g in &grants {
            net.end_transmission(*g);
        }
        for g in &grants {
            net.end_service(*g);
        }
        assert!(net.table.circuits.is_empty());
        assert!(net.table.busy.iter().all(|&b| b == 0));
        assert!(net
            .table
            .fabric
            .load
            .iter()
            .all(|copy| copy.iter().all(|&l| l == 0)));
    }

    /// One seeded healthy and one seeded faulted run per composite, pinned
    /// as the Debug text of every statistic the run's `SimReport` holds
    /// ([`rsin_core::equivalence::fingerprint`]).
    #[test]
    fn seeded_reports_are_pinned() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        let clx = || ClusteredXbarNet::new(ClusteredXbar::new(2, 4, 2, 2).expect("valid"));
        let mlo = || MultiLaneOmegaNet::new(MultiLaneOmega::new(2, 4, 2, 1).expect("valid"));
        let text = |net: &mut dyn ResourceNetwork, faulted: bool| {
            if faulted {
                format!("{:?}", faulted_fingerprint(net))
            } else {
                format!("{:?}", healthy_fingerprint(net))
            }
        };
        assert_eq!(text(&mut clx(), false), "[1500, 4634401378791787710, 4653752679827556944, 4616151475081053816, 4639227521119124998, 1492, 4634452062092434981, 4653695205765675475, 4616645077710535394, 4639227236894805133, 4653319579472356624, 4620186205138261114, 4641194583231404101, 2239, 740, 2998, 0, 0, 0, 0, 3935, 1592, 0, 2335, 8, 4620140870809136457]");
        assert_eq!(text(&mut clx(), true), "Ok([800, 4630262021293722080, 4645053346391207980, 4603058714324124488, 4635122992139980379, 710, 4630417987845862942, 4644971613281625560, 4606931372987996120, 4635153286439662458, 4648325201379781044, 4620036374437648674, 4637290815470001665, 2338, 1539, 1598, 43, 44, 0, 0, 1839, 756, 86, 1075, 8, 4619096959386494338])");
        assert_eq!(text(&mut mlo(), false), "[1500, 4634487058357082252, 4653645640095840928, 4616904771131698466, 4639069196183791579, 1492, 4634538587136211098, 4653586665999090170, 4618162342069936310, 4639090957075875724, 4653423353254089598, 4620141190994903911, 4641231800020013803, 1499, 0, 2998, 0, 0, 0, 0, 3970, 1592, 0, 2370, 8, 4620096096741210492]");
        assert_eq!(text(&mut mlo(), true), "Ok([800, 4630298759529526968, 4645553816973136297, 4612705642499947234, 4635509076290739646, 749, 4630396719652211360, 4645332677087635164, 4615927809516046568, 4635539287998456292, 4648389111811422976, 4619662694871577840, 4637646399258564550, 1350, 551, 1598, 44, 44, 0, 0, 1930, 797, 46, 1126, 7, 4619154181748260732])");
    }

    #[test]
    fn resource_fault_drops_circuits_and_blocks_the_port() {
        let spec = ClusteredXbar::new(2, 2, 2, 1).expect("valid");
        let mut net = ClusteredXbarNet::new(spec);
        let pending = vec![true; 4];
        let grants = drive_cycle(&mut net, &pending);
        assert!(!grants.is_empty());
        let hit = grants[0].port;
        assert!(net.fail_resource(hit));
        assert!(!net.fail_resource(hit), "double fault refused");
        // The casualty's circuit is gone; its processor can request again,
        // but never lands on the dead port.
        let again = drive_cycle(&mut net, &pending);
        assert!(again.iter().all(|g| g.port != hit));
        assert!(net.repair_resource(hit));
        assert!(!net.repair_resource(hit));
        let counters = net.take_counters();
        assert_eq!(counters.resource_failures, 1);
        assert_eq!(counters.resource_repairs, 1);
    }
}
