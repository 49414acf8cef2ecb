//! The single-shared-bus RSIN (Section III).
//!
//! The system is partitioned into `i` independent buses; bus `b` connects
//! processors `b·j .. (b+1)·j` to `r` private resources. Status information
//! — the count of free resources — is broadcast on the bus: whenever a free
//! resource is allocated or a busy one completes, blocked requests wake and
//! the arbiter admits exactly one of them (the rest re-queue), provided the
//! bus itself is idle.
//!
//! A decision epoch can therefore grant only on a bus that is up, idle and
//! has a free resource; every other pending request is simply rejected
//! again. The arbitration walks just those buses — the packed idle-bus mask
//! ANDed with the pool's free mask — and counts attempts and rejections by
//! popcount over the packed pending set.

use crate::arbiter::{Arbiter, Arbitration};
use rsin_bitslice::{clear_bit, copy_lanes, count_ones, set_bit, words_for, WORD_BITS};
use rsin_core::{Grant, NetworkCounters, PendingSet, PortPool, ResourceNetwork, SystemConfig};
use rsin_des::SimRng;

/// State of one bus partition.
#[derive(Clone, Debug)]
struct Bus {
    transmitting: bool,
    arbiter: Arbiter,
    /// Bus/arbiter hardware is operational (element fault state).
    bus_up: bool,
}

/// A partitioned single-shared-bus RSIN.
///
/// # Examples
///
/// ```
/// use rsin_core::{ResourceNetwork, SystemConfig};
/// use rsin_sbus::{Arbitration, SharedBusNetwork};
///
/// let cfg: SystemConfig = "16/16x1x1 SBUS/2".parse()?;
/// let net = SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority)?;
/// assert_eq!(net.processors(), 16);
/// assert_eq!(net.total_resources(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SharedBusNetwork {
    procs_per_bus: usize,
    buses: Vec<Bus>,
    /// Bit `b` (64 buses per word, LSB-first, tail lanes zero) is set
    /// exactly while bus `b` is up and not transmitting; every change to
    /// either fact goes through [`SharedBusNetwork::refresh_idle`].
    idle: Vec<u64>,
    /// Bus `b`'s resources are pool `b`.
    pool: PortPool,
    counters: NetworkCounters,
    /// One bus's candidate lanes, reused across buses and cycles.
    lanes: Vec<u64>,
    /// Test oracle switch: arbitrate from candidate lists instead.
    #[cfg(test)]
    list_oracle: bool,
}

/// Error building a [`SharedBusNetwork`] from a config of the wrong kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrongKindError {
    /// The kind found in the configuration.
    pub found: rsin_core::NetworkKind,
}

impl std::fmt::Display for WrongKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expected an SBUS configuration, got {}", self.found)
    }
}

impl std::error::Error for WrongKindError {}

impl SharedBusNetwork {
    /// Builds the network described by `config` (which must be of kind
    /// [`NetworkKind::SharedBus`](rsin_core::NetworkKind::SharedBus)).
    ///
    /// # Errors
    ///
    /// [`WrongKindError`] when the configuration names another network type.
    pub fn from_config(
        config: &SystemConfig,
        arbitration: Arbitration,
    ) -> Result<Self, WrongKindError> {
        if config.kind() != rsin_core::NetworkKind::SharedBus {
            return Err(WrongKindError {
                found: config.kind(),
            });
        }
        Ok(SharedBusNetwork::new(
            config.networks() as usize,
            config.inputs() as usize,
            config.resources_per_port(),
            arbitration,
        ))
    }

    /// Builds `buses` independent buses, each with `procs_per_bus`
    /// processors and `resources_per_bus` resources.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    #[must_use]
    pub fn new(
        buses: usize,
        procs_per_bus: usize,
        resources_per_bus: u32,
        arbitration: Arbitration,
    ) -> Self {
        assert!(buses > 0 && procs_per_bus > 0, "counts must be positive");
        assert!(resources_per_bus > 0, "resources per bus must be positive");
        let mut idle = vec![0; words_for(buses)];
        (0..buses).for_each(|b| set_bit(&mut idle, b));
        SharedBusNetwork {
            procs_per_bus,
            buses: (0..buses)
                .map(|_| Bus {
                    transmitting: false,
                    arbiter: Arbiter::new(arbitration),
                    bus_up: true,
                })
                .collect(),
            idle,
            pool: PortPool::new(buses, resources_per_bus),
            counters: NetworkCounters::default(),
            lanes: Vec::new(),
            #[cfg(test)]
            list_oracle: false,
        }
    }

    /// Number of independent bus partitions.
    #[must_use]
    pub fn buses(&self) -> usize {
        self.buses.len()
    }

    /// Free resources currently available on bus `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    #[must_use]
    pub fn free_resources_on(&self, b: usize) -> u32 {
        self.pool.free(b)
    }

    /// Re-derives bus `b`'s idle bit from its up and transmitting state.
    fn refresh_idle(&mut self, b: usize) {
        let bus = &self.buses[b];
        if bus.bus_up && !bus.transmitting {
            set_bit(&mut self.idle, b);
        } else {
            clear_bit(&mut self.idle, b);
        }
    }
}

impl ResourceNetwork for SharedBusNetwork {
    fn processors(&self) -> usize {
        self.buses.len() * self.procs_per_bus
    }

    fn total_resources(&self) -> usize {
        self.buses.len() * self.pool.capacity() as usize
    }

    /// One request cycle over the packed pending set (tail lanes zero):
    /// every pending processor attempts, and each bus that is idle with a
    /// free resource grants one of its pending processors, in ascending
    /// bus order. The rest are rejected.
    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        assert_eq!(
            pending.words.len(),
            words_for(self.processors()),
            "pending vector size"
        );
        #[cfg(test)]
        if self.list_oracle {
            self.request_cycle_by_lists(pending.bools, rng, out);
            return;
        }
        let pending = pending.words;
        // The buses tile the processors exactly, so the whole-vector
        // popcount is the sum of every bus's requests.
        let attempts = count_ones(pending) as u64;
        let mut lanes = std::mem::take(&mut self.lanes);
        for w in 0..self.idle.len() {
            let mut ready = self.idle[w] & self.pool.words()[w];
            while ready != 0 {
                let b = w * WORD_BITS + ready.trailing_zeros() as usize;
                ready &= ready - 1;
                let base = b * self.procs_per_bus;
                copy_lanes(pending, base, self.procs_per_bus, &mut lanes);
                let count = count_ones(&lanes);
                if count == 0 {
                    continue;
                }
                let bus = &mut self.buses[b];
                let winner = bus
                    .arbiter
                    .pick_packed(&lanes, count, rng)
                    .expect("count > 0");
                bus.transmitting = true;
                self.refresh_idle(b);
                out.push(Grant {
                    processor: base + winner,
                    port: b,
                });
            }
        }
        self.lanes = lanes;
        self.counters.attempts += attempts;
        self.counters.rejections += attempts - out.len() as u64;
    }

    fn end_transmission(&mut self, grant: Grant) {
        let bus = &mut self.buses[grant.port];
        debug_assert!(bus.transmitting, "no transmission in progress");
        bus.transmitting = false;
        self.refresh_idle(grant.port);
        self.pool.occupy(grant.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.pool.vacate(grant.port);
    }

    fn fail_resource(&mut self, port: usize) -> bool {
        if !self.pool.fail(port) {
            return false;
        }
        // The transmission on the bus, if any, was bound for this pool;
        // the simulator requeues it with the other casualties.
        self.buses[port].transmitting = false;
        self.refresh_idle(port);
        self.counters.resource_failures += 1;
        true
    }

    fn repair_resource(&mut self, port: usize) -> bool {
        let accepted = self.pool.repair(port);
        self.counters.resource_repairs += u64::from(accepted);
        accepted
    }

    fn fail_element(&mut self, element: usize) -> bool {
        // Element b = the bus/arbiter pair of partition b. An outage makes
        // the whole partition unavailable until repair (fail-open: the
        // transmission already on the wire completes).
        let Some(bus) = self.buses.get_mut(element) else {
            return false;
        };
        if !bus.bus_up {
            return false;
        }
        bus.bus_up = false;
        self.refresh_idle(element);
        self.counters.element_failures += 1;
        true
    }

    fn repair_element(&mut self, element: usize) -> bool {
        let Some(bus) = self.buses.get_mut(element) else {
            return false;
        };
        if bus.bus_up {
            return false;
        }
        bus.bus_up = true;
        self.refresh_idle(element);
        self.counters.element_repairs += 1;
        true
    }

    fn fault_elements(&self) -> usize {
        self.buses.len()
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }

    fn label(&self) -> &'static str {
        "SBUS"
    }
}

/// Test oracle: the candidate-list arbitration the packed path replaces.
/// It visits every bus and reads only `bus_up`, `transmitting` and the
/// pool's scalar `has_free` — never the idle-bus mask.
#[cfg(test)]
impl SharedBusNetwork {
    /// The same network arbitrating through [`Arbiter::pick`] on explicit
    /// candidate lists.
    fn list_oracle(mut self) -> Self {
        self.list_oracle = true;
        self
    }

    fn request_cycle_by_lists(&mut self, pending: &[bool], rng: &mut SimRng, out: &mut Vec<Grant>) {
        for (b, bus) in self.buses.iter_mut().enumerate() {
            let base = b * self.procs_per_bus;
            let candidates: Vec<usize> = (0..self.procs_per_bus)
                .filter(|&local| pending[base + local])
                .collect();
            if candidates.is_empty() {
                continue;
            }
            self.counters.attempts += candidates.len() as u64;
            if !bus.bus_up || bus.transmitting || !self.pool.has_free(b) {
                self.counters.rejections += candidates.len() as u64;
                continue;
            }
            let winner = bus
                .arbiter
                .pick(&candidates, rng)
                .expect("candidates nonempty");
            self.counters.rejections += candidates.len() as u64 - 1;
            bus.transmitting = true;
            out.push(Grant {
                processor: base + winner,
                port: b,
            });
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
    fn grants_one_per_bus_per_cycle() {
        let mut net = SharedBusNetwork::new(2, 2, 2, Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        let grants = net.request_cycle(&pending(4, &[0, 1, 2, 3]), &mut rng);
        assert_eq!(grants.len(), 2, "one grant per bus");
        assert_eq!(
            grants[0],
            Grant {
                processor: 0,
                port: 0
            }
        );
        assert_eq!(
            grants[1],
            Grant {
                processor: 2,
                port: 1
            }
        );
    }

    #[test]
    fn busy_bus_rejects() {
        let mut net = SharedBusNetwork::new(1, 2, 2, Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(2, &[0]), &mut rng);
        assert_eq!(g.len(), 1);
        // Bus still transmitting: second request must wait.
        assert!(net.request_cycle(&pending(2, &[1]), &mut rng).is_empty());
        net.end_transmission(g[0]);
        // Bus free, resource 1 of 2 busy: next grant succeeds.
        assert_eq!(net.request_cycle(&pending(2, &[1]), &mut rng).len(), 1);
    }

    #[test]
    fn exhausted_resources_reject_until_service_completes() {
        let mut net = SharedBusNetwork::new(1, 3, 1, Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        let g = net.request_cycle(&pending(3, &[0]), &mut rng);
        net.end_transmission(g[0]);
        assert_eq!(net.free_resources_on(0), 0);
        assert!(net.request_cycle(&pending(3, &[1]), &mut rng).is_empty());
        net.end_service(g[0]);
        assert_eq!(net.free_resources_on(0), 1);
        assert_eq!(net.request_cycle(&pending(3, &[1]), &mut rng).len(), 1);
    }

    #[test]
    fn partitions_do_not_interfere() {
        let mut net = SharedBusNetwork::new(2, 1, 1, Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        // Saturate bus 0 completely.
        let g = net.request_cycle(&pending(2, &[0]), &mut rng);
        net.end_transmission(g[0]);
        // Bus 1 is unaffected.
        let g1 = net.request_cycle(&pending(2, &[1]), &mut rng);
        assert_eq!(g1.len(), 1);
        assert_eq!(g1[0].port, 1);
    }

    #[test]
    fn counters_track_attempts_and_rejections() {
        let mut net = SharedBusNetwork::new(1, 4, 2, Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        let _ = net.request_cycle(&pending(4, &[0, 1, 2, 3]), &mut rng);
        let c = net.take_counters();
        assert_eq!(c.attempts, 4);
        assert_eq!(c.rejections, 3);
        assert_eq!(net.take_counters(), NetworkCounters::default(), "drained");
    }

    #[test]
    fn from_config_checks_kind() {
        let cfg: SystemConfig = "16/4x4x4 OMEGA/2".parse().expect("valid");
        assert!(SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority).is_err());
        let cfg: SystemConfig = "16/2x8x1 SBUS/16".parse().expect("valid");
        let net =
            SharedBusNetwork::from_config(&cfg, Arbitration::FixedPriority).expect("sbus config");
        assert_eq!(net.buses(), 2);
        assert_eq!(net.processors(), 16);
        assert_eq!(net.total_resources(), 32);
    }

    const POLICIES: [Arbitration; 3] = [
        Arbitration::FixedPriority,
        Arbitration::Random,
        Arbitration::RoundRobin,
    ];

    /// The one value the packed network and the oracle agree on.
    fn agreed<T: PartialEq + std::fmt::Debug>([packed, oracle]: [T; 2]) -> T {
        assert_eq!(packed, oracle, "packed path vs oracle");
        packed
    }

    /// Packed arbitration must match the candidate-list oracle through the
    /// whole network surface — grants, counters, and rng consumption — on
    /// hand-packed words, under a chaotic mix of requests, completions, and
    /// bus and pool outages that outlast a cycle. The geometries (buses ×
    /// processors per bus) give an idle-bus mask that spans words (67
    /// buses) and buses that straddle pending words.
    #[test]
    fn packed_arbitration_matches_list_oracle_through_the_network_surface() {
        for (buses, width) in [(2, 70), (67, 3), (3, 70), (5, 100)] {
            for policy in POLICIES {
                let p = buses * width;
                let mut nets = [
                    SharedBusNetwork::new(buses, width, 3, policy),
                    SharedBusNetwork::new(buses, width, 3, policy).list_oracle(),
                ];
                let mut rngs = [SimRng::new(97), SimRng::new(97)];
                let mut lcg = 0xb0b0u64 ^ p as u64;
                let mut step = move || {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (lcg >> 33) as usize
                };
                let mut out: [Vec<Grant>; 2] = Default::default();
                let (mut transmitting, mut serving) = (Vec::<Grant>::new(), Vec::<Grant>::new());
                let types = vec![0; p];
                for _ in 0..600 {
                    match step() % 12 {
                        0..=5 => {
                            let mut pending: Vec<bool> = (0..p).map(|_| step() % 3 == 0).collect();
                            // A processor holds at most one circuit.
                            for g in &transmitting {
                                pending[g.processor] = false;
                            }
                            let mut words = vec![0; words_for(p)];
                            for i in (0..p).filter(|&i| pending[i]) {
                                set_bit(&mut words, i);
                            }
                            let set = PendingSet {
                                bools: &pending,
                                words: &words,
                                types: &types,
                            };
                            for ((net, rng), out) in nets.iter_mut().zip(&mut rngs).zip(&mut out) {
                                out.clear();
                                net.request_cycle_pending(set, rng, out);
                            }
                            transmitting.extend(agreed(out.clone()));
                        }
                        6 | 7 => {
                            for g in std::mem::take(&mut transmitting) {
                                if step() % 2 == 0 {
                                    nets.iter_mut().for_each(|n| n.end_transmission(g));
                                    serving.push(g);
                                } else {
                                    transmitting.push(g);
                                }
                            }
                        }
                        8 => {
                            for g in std::mem::take(&mut serving) {
                                if step() % 2 == 0 {
                                    nets.iter_mut().for_each(|n| n.end_service(g));
                                } else {
                                    serving.push(g);
                                }
                            }
                        }
                        9 => {
                            let b = step() % buses;
                            if step() % 2 == 0 {
                                agreed(nets.each_mut().map(|n| n.fail_element(b)));
                            } else {
                                agreed(nets.each_mut().map(|n| n.repair_element(b)));
                            }
                        }
                        _ => {
                            let b = step() % buses;
                            if step() % 2 == 1 {
                                agreed(nets.each_mut().map(|n| n.repair_resource(b)));
                            } else if agreed(nets.each_mut().map(|n| n.fail_resource(b))) {
                                // The pool's circuits and busy resources
                                // are gone with it.
                                transmitting.retain(|g| g.port != b);
                                serving.retain(|g| g.port != b);
                            }
                        }
                    }
                }
                agreed(nets.each_mut().map(|n| n.take_counters()));
                agreed(rngs.each_mut().map(|r| r.next_u64()));
            }
        }
    }

    /// The whole-DES check: every arbitration, healthy and under faults,
    /// must yield a bit-identical run on the packed path (which the
    /// simulator feeds through `request_cycle_pending`) and the oracle.
    #[test]
    fn des_runs_match_list_oracle() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        for arb in POLICIES {
            let net = || SharedBusNetwork::new(2, 3, 2, arb);
            assert_eq!(
                healthy_fingerprint(&mut net()),
                healthy_fingerprint(&mut net().list_oracle()),
                "{arb:?} healthy"
            );
            assert_eq!(
                faulted_fingerprint(&mut net()),
                faulted_fingerprint(&mut net().list_oracle()),
                "{arb:?} faulted"
            );
        }
    }

    /// Healthy and faulted fingerprints of a run at 80 % of what each bus
    /// carries (its bus or its pool, whichever is slower). In the faulted
    /// run the first and last pools and the middle bus flap.
    fn carried_load_fingerprints(
        net: impl Fn() -> SharedBusNetwork,
    ) -> (Vec<u64>, Result<Vec<u64>, String>) {
        use rsin_core::equivalence::fingerprint;
        use rsin_core::{simulate, simulate_faulty, FaultOptions, SimOptions, Workload};
        use rsin_des::{FaultPlan, FaultTarget, StochasticFault};
        let probe = net();
        let (buses, width, r) = (probe.buses(), probe.procs_per_bus, probe.pool.capacity());
        let lambda = 0.8 * f64::from(r).min(10.0) / width as f64;
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
            FaultTarget::Resource(buses - 1),
            FaultTarget::Element(buses / 2),
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

    /// The whole-DES check on wide systems: an idle-bus mask that spans
    /// words (67 buses), buses that straddle pending words (70 and 100
    /// processors), and the 64×16 r12 system the p = 1024 provisioning
    /// search confirms.
    #[test]
    fn wide_des_runs_match_list_oracle() {
        for (buses, width, r) in [(67, 3, 2), (3, 70, 4), (5, 100, 8), (64, 16, 12)] {
            for arb in POLICIES {
                let net = || SharedBusNetwork::new(buses, width, r, arb);
                let (healthy, faulted) = carried_load_fingerprints(net);
                let (oracle_healthy, oracle_faulted) =
                    carried_load_fingerprints(|| net().list_oracle());
                let at = format!("{arb:?} {buses}x{width} r{r}");
                assert_eq!(healthy, oracle_healthy, "{at} healthy");
                assert!(faulted.is_ok(), "{at}: {faulted:?}");
                assert_eq!(faulted, oracle_faulted, "{at} faulted");
            }
        }
    }

    #[test]
    fn random_arbitration_spreads_grants() {
        let mut net = SharedBusNetwork::new(1, 3, 3, Arbitration::Random);
        let mut rng = SimRng::new(5);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let g = net.request_cycle(&pending(3, &[0, 1, 2]), &mut rng);
            seen[g[0].processor] = true;
            net.end_transmission(g[0]);
            net.end_service(g[0]);
        }
        assert!(seen.iter().all(|&s| s), "all processors must win sometimes");
    }
}
