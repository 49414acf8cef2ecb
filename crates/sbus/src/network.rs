//! The single-shared-bus RSIN (Section III).
//!
//! The system is partitioned into `i` independent buses; bus `b` connects
//! processors `b·j .. (b+1)·j` to `r` private resources. Status information
//! — the count of free resources — is broadcast on the bus: whenever a free
//! resource is allocated or a busy one completes, blocked requests wake and
//! the arbiter admits exactly one of them (the rest re-queue), provided the
//! bus itself is idle.

use crate::arbiter::{Arbiter, Arbitration};
use rsin_bitslice::{count_ones, pack_bools};
use rsin_core::{Grant, NetworkCounters, PortPool, ResourceNetwork, SystemConfig};
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
    /// Bus `b`'s resources are pool `b`.
    pool: PortPool,
    counters: NetworkCounters,
    /// Packed per-bus candidate mask, reused across cycles.
    scratch: Vec<u64>,
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
        SharedBusNetwork {
            procs_per_bus,
            buses: (0..buses)
                .map(|_| Bus {
                    transmitting: false,
                    arbiter: Arbiter::new(arbitration),
                    bus_up: true,
                })
                .collect(),
            pool: PortPool::new(buses, resources_per_bus),
            counters: NetworkCounters::default(),
            scratch: Vec::new(),
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
}

impl ResourceNetwork for SharedBusNetwork {
    fn processors(&self) -> usize {
        self.buses.len() * self.procs_per_bus
    }

    fn total_resources(&self) -> usize {
        self.buses.len() * self.pool.capacity(0) as usize
    }

    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.request_cycle_into(pending, rng, &mut grants);
        grants
    }

    fn request_cycle_into(&mut self, pending: &[bool], rng: &mut SimRng, out: &mut Vec<Grant>) {
        assert_eq!(pending.len(), self.processors(), "pending vector size");
        out.clear();
        #[cfg(test)]
        if self.list_oracle {
            self.request_cycle_by_lists(pending, rng, out);
            return;
        }
        // Candidates live in u64 lanes; arbitration is a parallel-prefix
        // select instead of a candidate-list scan.
        let mut mask = std::mem::take(&mut self.scratch);
        for (b, bus) in self.buses.iter_mut().enumerate() {
            let base = b * self.procs_per_bus;
            pack_bools(&pending[base..base + self.procs_per_bus], &mut mask);
            let count = count_ones(&mask);
            if count == 0 {
                continue;
            }
            self.counters.attempts += count as u64;
            if !bus.bus_up || bus.transmitting || !self.pool.has_free(b) {
                self.counters.rejections += count as u64;
                continue;
            }
            let winner = bus
                .arbiter
                .pick_packed(&mask, count, rng)
                .expect("count > 0");
            self.counters.rejections += count as u64 - 1;
            bus.transmitting = true;
            out.push(Grant {
                processor: base + winner,
                port: b,
            });
        }
        self.scratch = mask;
    }

    fn end_transmission(&mut self, grant: Grant) {
        let bus = &mut self.buses[grant.port];
        debug_assert!(bus.transmitting, "no transmission in progress");
        bus.transmitting = false;
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

    /// Packed arbitration must match the candidate-list oracle through the
    /// whole network surface — grants, counters, and rng consumption —
    /// under a chaotic mix of requests, completions, and faults.
    #[test]
    fn packed_arbitration_matches_list_oracle_through_the_network_surface() {
        for policy in [
            Arbitration::FixedPriority,
            Arbitration::Random,
            Arbitration::RoundRobin,
        ] {
            // 2 buses × 70 processors: multi-word candidate masks.
            let mut fast = SharedBusNetwork::new(2, 70, 3, policy);
            let mut slow = SharedBusNetwork::new(2, 70, 3, policy).list_oracle();
            let mut rng_a = SimRng::new(97);
            let mut rng_b = SimRng::new(97);
            let mut lcg = 0xb0b0u64;
            let mut step = move || {
                lcg = lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (lcg >> 33) as usize
            };
            let mut live: Vec<Grant> = Vec::new();
            for _ in 0..400 {
                match step() % 10 {
                    0..=5 => {
                        let mut pending = vec![false; 140];
                        for p in &mut pending {
                            *p = step() % 3 == 0;
                        }
                        let ga = fast.request_cycle(&pending, &mut rng_a);
                        let gb = slow.request_cycle(&pending, &mut rng_b);
                        assert_eq!(ga, gb, "{policy:?} grants diverged");
                        live.extend(ga);
                    }
                    6 => {
                        if !live.is_empty() {
                            let g = live.swap_remove(step() % live.len());
                            fast.end_transmission(g);
                            slow.end_transmission(g);
                            fast.end_service(g);
                            slow.end_service(g);
                        }
                    }
                    7 => {
                        let b = step() % 2;
                        assert_eq!(fast.fail_element(b), slow.fail_element(b));
                        assert_eq!(fast.repair_element(b), slow.repair_element(b));
                    }
                    _ => {
                        let b = step() % 2;
                        let failed = fast.fail_resource(b);
                        assert_eq!(failed, slow.fail_resource(b));
                        if failed {
                            live.retain(|g| g.port != b);
                        }
                        assert_eq!(fast.repair_resource(b), slow.repair_resource(b));
                    }
                }
            }
            assert_eq!(fast.take_counters(), slow.take_counters(), "{policy:?}");
        }
    }

    /// The whole-DES check: every arbitration, healthy and under faults,
    /// must yield a bit-identical run on the packed path and the oracle.
    #[test]
    fn des_runs_match_list_oracle() {
        use rsin_core::equivalence::{faulted_fingerprint, healthy_fingerprint};
        for arb in [
            Arbitration::FixedPriority,
            Arbitration::Random,
            Arbitration::RoundRobin,
        ] {
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
