//! The typed shared bus: multiple resource types on one bus.
//!
//! The simplest instance of the paper's multiple-types extension
//! (Section VII): the bus broadcasts one free-resource count *per type*,
//! and the arbiter admits the highest-priority pending request whose type
//! has a free resource. Each bus's pool of one type is one output port,
//! `port = bus · types + type`, so the network is a plain
//! [`ResourceNetwork`] that reads each request's type from
//! [`PendingSet::types`]. It keeps its own per-type arbitration rather
//! than a type branch in [`crate::SharedBusNetwork`]'s packed fast path.

use crate::arbiter::{Arbiter, Arbitration};
use rsin_core::{Grant, NetworkCounters, PendingSet, PortPool, ResourceNetwork};
use rsin_des::SimRng;

#[derive(Clone, Debug)]
struct TypedBus {
    transmitting: bool,
    arbiter: Arbiter,
}

/// A partitioned shared-bus RSIN hosting several resource types per bus.
///
/// # Examples
///
/// ```
/// use rsin_core::ResourceNetwork;
/// use rsin_sbus::{Arbitration, TypedSharedBus};
///
/// // 2 buses, 4 processors each; every bus hosts 3 type-0 and 1 type-1
/// // resources.
/// let net = TypedSharedBus::new(2, 4, vec![3, 1], Arbitration::FixedPriority);
/// assert_eq!(net.processors(), 8);
/// assert_eq!(net.resource_types(), 2);
/// assert_eq!(net.port_type(3), 1); // bus 1's type-1 pool
/// ```
#[derive(Debug)]
pub struct TypedSharedBus {
    procs_per_bus: usize,
    types: usize,
    buses: Vec<TypedBus>,
    /// One pool per output port, `bus · types + type`.
    pool: PortPool,
    counters: NetworkCounters,
}

impl TypedSharedBus {
    /// Builds `buses` buses with `procs_per_bus` processors each;
    /// `resources_per_type[t]` resources of type `t` sit on every bus.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the type list is empty.
    #[must_use]
    pub fn new(
        buses: usize,
        procs_per_bus: usize,
        resources_per_type: Vec<u32>,
        arbitration: Arbitration,
    ) -> Self {
        assert!(buses > 0 && procs_per_bus > 0, "counts must be positive");
        assert!(!resources_per_type.is_empty(), "need at least one type");
        assert!(
            resources_per_type.iter().all(|&r| r > 0),
            "each type needs at least one resource"
        );
        TypedSharedBus {
            procs_per_bus,
            types: resources_per_type.len(),
            buses: (0..buses)
                .map(|_| TypedBus {
                    transmitting: false,
                    arbiter: Arbiter::new(arbitration),
                })
                .collect(),
            pool: PortPool::with_capacities(resources_per_type.repeat(buses)),
            counters: NetworkCounters::default(),
        }
    }

    /// Free resources of `ty` on bus `b`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[must_use]
    pub fn free_resources_on(&self, b: usize, ty: usize) -> u32 {
        assert!(ty < self.types, "type out of range");
        self.pool.free(b * self.types + ty)
    }
}

impl ResourceNetwork for TypedSharedBus {
    fn processors(&self) -> usize {
        self.buses.len() * self.procs_per_bus
    }

    fn total_resources(&self) -> usize {
        (0..self.pool.ports())
            .map(|port| self.pool.capacity(port) as usize)
            .sum()
    }

    fn resource_types(&self) -> usize {
        self.types
    }

    fn port_type(&self, port: usize) -> usize {
        port % self.types
    }

    fn request_cycle_pending(
        &mut self,
        PendingSet { bools, types, .. }: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        assert_eq!(bools.len(), self.processors(), "pending vector size");
        for (b, bus) in self.buses.iter_mut().enumerate() {
            let base = b * self.procs_per_bus;
            let waiting: Vec<(usize, usize)> = (0..self.procs_per_bus)
                .filter(|&l| bools[base + l])
                .map(|l| (l, types[base + l]))
                .collect();
            if waiting.is_empty() {
                continue;
            }
            self.counters.attempts += waiting.len() as u64;
            if bus.transmitting {
                self.counters.rejections += waiting.len() as u64;
                continue;
            }
            // Only requests whose type has a free resource wake up.
            let candidates: Vec<usize> = waiting
                .iter()
                .filter(|&&(_, t)| self.pool.has_free(b * self.types + t))
                .map(|&(l, _)| l)
                .collect();
            if candidates.is_empty() {
                self.counters.rejections += waiting.len() as u64;
                continue;
            }
            let winner = bus
                .arbiter
                .pick(&candidates, rng)
                .expect("candidates nonempty");
            self.counters.rejections += waiting.len() as u64 - 1;
            let ty = waiting
                .iter()
                .find(|&&(l, _)| l == winner)
                .map(|&(_, t)| t)
                .expect("winner came from waiting");
            bus.transmitting = true;
            out.push(Grant {
                processor: base + winner,
                port: b * self.types + ty,
            });
        }
    }

    fn end_transmission(&mut self, grant: Grant) {
        let bus = &mut self.buses[grant.port / self.types];
        debug_assert!(bus.transmitting);
        bus.transmitting = false;
        self.pool.occupy(grant.port);
    }

    fn end_service(&mut self, grant: Grant) {
        self.pool.vacate(grant.port);
    }

    fn take_counters(&mut self) -> NetworkCounters {
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::typed::{simulate_typed, TypedWorkload};
    use rsin_core::{SimOptions, Workload};

    /// One request cycle in which processor `i` requests type `t` for each
    /// `(i, t)` in `set`.
    fn cycle(
        net: &mut TypedSharedBus,
        n: usize,
        set: &[(usize, usize)],
        rng: &mut SimRng,
    ) -> Vec<Grant> {
        let (mut bools, mut types) = (vec![false; n], vec![0; n]);
        let mut words = vec![0u64; n.div_ceil(64)];
        for &(i, t) in set {
            bools[i] = true;
            types[i] = t;
            words[i / 64] |= 1 << (i % 64);
        }
        let mut out = Vec::new();
        net.request_cycle_pending(
            PendingSet {
                bools: &bools,
                words: &words,
                types: &types,
            },
            rng,
            &mut out,
        );
        out
    }

    #[test]
    fn type_exhaustion_is_isolated() {
        let mut net = TypedSharedBus::new(1, 3, vec![1, 1], Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        // Type 0's only resource goes busy.
        let g = cycle(&mut net, 3, &[(0, 0)], &mut rng);
        net.end_transmission(g[0]);
        assert_eq!(net.free_resources_on(0, 0), 0);
        // Another type-0 request stalls; a type-1 request flows.
        assert!(cycle(&mut net, 3, &[(1, 0)], &mut rng).is_empty());
        let g1 = cycle(&mut net, 3, &[(1, 1)], &mut rng);
        assert_eq!(g1.len(), 1);
        assert_eq!(net.port_type(g1[0].port), 1);
    }

    #[test]
    fn bus_serializes_across_types() {
        // Even with both types free, the single bus carries one
        // transmission at a time.
        let mut net = TypedSharedBus::new(1, 2, vec![2, 2], Arbitration::FixedPriority);
        let mut rng = SimRng::new(2);
        let g = cycle(&mut net, 2, &[(0, 0), (1, 1)], &mut rng);
        assert_eq!(g.len(), 1, "one grant per bus per cycle");
    }

    #[test]
    fn typed_bus_simulation_runs() {
        let base = Workload::new(0.1, 5.0, 1.0).expect("valid");
        let w = TypedWorkload::new(base, vec![0.7, 0.3]).expect("valid");
        let mut net = TypedSharedBus::new(4, 1, vec![2, 1], Arbitration::FixedPriority);
        let mut rng = SimRng::new(3);
        let opts = SimOptions {
            warmup_tasks: 500,
            measured_tasks: 10_000,
        };
        let report = simulate_typed(&mut net, &w, &opts, &mut rng);
        assert_eq!(report.queueing_delay.count(), 10_000);
        // The scarcer type with its single resource waits longer on average.
        let d0 = report.per_type_delay[0].mean();
        let d1 = report.per_type_delay[1].mean();
        assert!(
            d1 > d0,
            "type 1 (1 resource, 30% of traffic) should wait more: {d1} vs {d0}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one type")]
    fn empty_type_list_rejected() {
        let _ = TypedSharedBus::new(1, 1, vec![], Arbitration::FixedPriority);
    }
}
