//! The `ResourceNetwork` abstraction: what every RSIN must implement.
//!
//! The simulator is network-agnostic. At every decision epoch it hands the
//! network the set of processors whose head-of-queue task is awaiting a
//! resource; the network — using whatever distributed scheduling discipline
//! it implements — returns the set of granted connections. The simulator
//! then drives each connection through the paper's task lifecycle:
//!
//! ```text
//! arrival → queue at processor → [request cycle(s)] → Grant
//!        → transmission (circuit held, Exp(µ_n)) → end_transmission
//!        → service at resource (circuit released, Exp(µ_s)) → end_service
//! ```

use rsin_des::SimRng;

/// A granted processor→resource connection.
///
/// `port` is the *global* output-port index (`0 .. i·k`); the network
/// resolves it to one of the `r` resources it carries internally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The processor whose head-of-queue task was granted.
    pub processor: usize,
    /// Global output-port index the circuit terminates at.
    pub port: usize,
}

/// The simulator's pending set, carried in two consistent views: one flag
/// per processor, and the same flags bit-packed 64 per `u64`, LSB-first
/// (the `rsin-bitslice` lane layout). Lanes past the last processor are
/// zero. The simulator maintains both views incrementally, so a network
/// with a packed fast path starts from `words` without re-packing while
/// everything else reads `bools`.
///
/// It also carries the type number of each pending request — the paper's
/// multiple-resource-type extension, where "the request and status
/// signals have to be augmented by a type number" (Section VII).
#[derive(Clone, Copy, Debug)]
pub struct PendingSet<'a> {
    /// `bools[i]` is true when processor `i` has a task awaiting allocation.
    pub bools: &'a [bool],
    /// The same flags packed 64 per word, LSB-first; tail lanes zero.
    pub words: &'a [u64],
    /// `types[i]` is the resource type processor `i`'s head-of-queue task
    /// requests; meaningful only where `bools[i]` is set, and always 0
    /// under a single-type workload.
    pub types: &'a [usize],
}

/// Counters a network accumulates about its own scheduling work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Requests submitted to the network fabric.
    pub attempts: u64,
    /// Requests the fabric could not serve in the cycle they were submitted
    /// (blocked by links, busy buses, or busy resources).
    pub rejections: u64,
    /// Total interchange boxes (or cells) traversed by granted requests,
    /// where the network tracks it; 0 otherwise.
    pub boxes_traversed: u64,
    /// Resource-pool failures applied (accepted `fail_resource` calls).
    pub resource_failures: u64,
    /// Resource-pool repairs applied (accepted `repair_resource` calls).
    pub resource_repairs: u64,
    /// Structural-element failures applied (accepted `fail_element` calls).
    pub element_failures: u64,
    /// Structural-element repairs applied (accepted `repair_element` calls).
    pub element_repairs: u64,
}

impl NetworkCounters {
    /// Fraction of attempts that were rejected (0 when no attempts).
    #[must_use]
    pub fn rejection_ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.rejections as f64 / self.attempts as f64
        }
    }
}

/// A resource-sharing interconnection network usable by the simulator.
///
/// Implementations must uphold the paper's structural rules:
///
/// * a processor holds at most one active circuit (it transmits one task at
///   a time — assumption (f));
/// * an output port carries `r` resources and accepts a new circuit only
///   while it has both a free bus/link *and* a free resource;
/// * the circuit occupies network capacity from [`ResourceNetwork::request_cycle`]
///   until [`ResourceNetwork::end_transmission`]; the resource stays busy
///   until [`ResourceNetwork::end_service`].
pub trait ResourceNetwork: std::fmt::Debug {
    /// Number of processors (input ports across all partitions).
    fn processors(&self) -> usize;

    /// Total resources across all partitions.
    fn total_resources(&self) -> usize;

    /// Runs one request cycle.
    ///
    /// `pending[i]` is true when processor `i` has a task awaiting
    /// allocation. Returns the connections granted this cycle; processors
    /// not granted remain queued and will be retried at the next epoch (the
    /// paper's "blocked tasks are … retried as soon as the network indicates
    /// that free resources are available").
    ///
    /// Implementations must never grant a processor that is not pending and
    /// never grant the same processor twice in one cycle.
    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant>;

    /// Runs one request cycle, writing the grants into a caller-owned buffer.
    ///
    /// Semantically identical to [`ResourceNetwork::request_cycle`] (same
    /// grants, in the same order, with the same RNG consumption), but lets
    /// the simulator's hot loop reuse one `Vec` across epochs instead of
    /// allocating a fresh one per decision. The default implementation
    /// delegates to `request_cycle`; the workspace networks override it to
    /// write grants directly.
    fn request_cycle_into(&mut self, pending: &[bool], rng: &mut SimRng, out: &mut Vec<Grant>) {
        out.clear();
        out.extend(self.request_cycle(pending, rng));
    }

    /// Runs one request cycle from a [`PendingSet`] carrying both views of
    /// the pending processors and their requested types.
    ///
    /// For a single-type network it is semantically identical to
    /// [`ResourceNetwork::request_cycle_into`] on `pending.bools` — same
    /// grants, same order, same RNG consumption — and that is exactly what
    /// the default implementation does. Networks whose scheduling fabric is
    /// bit-sliced override it to feed `pending.words` to the fabric
    /// directly, skipping the per-epoch re-pack of the request vector.
    /// Networks hosting several resource types override it to route each
    /// request by `pending.types`: a grant must land on a port whose
    /// [`ResourceNetwork::port_type`] is the type requested, and
    /// `request_cycle`/`request_cycle_into` treat every request as type 0.
    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    ) {
        self.request_cycle_into(pending.bools, rng, out);
    }

    /// Number of resource types the network hosts (1 unless it implements
    /// the multiple-resource-type extension).
    fn resource_types(&self) -> usize {
        1
    }

    /// The resource type hosted behind global output `port` (0 for a
    /// single-type network).
    fn port_type(&self, port: usize) -> usize {
        let _ = port;
        0
    }

    /// The task finished transmitting: release the circuit; the resource at
    /// `grant.port` begins service.
    fn end_transmission(&mut self, grant: Grant);

    /// The resource finished servicing the task: it becomes free and the
    /// status change propagates.
    fn end_service(&mut self, grant: Grant);

    /// Drains accumulated scheduling counters (resets them to zero).
    fn take_counters(&mut self) -> NetworkCounters {
        NetworkCounters::default()
    }

    /// Takes the resource pool behind global output `port` offline.
    ///
    /// Returns `true` when the network supports resource faults and the
    /// pool was up. On acceptance the network must *internally* release
    /// every circuit and busy count associated with the port — the
    /// simulator cancels the casualties' lifecycle events and requeues the
    /// tasks, and will **not** call [`ResourceNetwork::end_transmission`]
    /// or [`ResourceNetwork::end_service`] for them. Until repaired, the
    /// port must advertise no availability.
    ///
    /// The default implementation ignores the fault (returns `false`), so
    /// fault-unaware networks keep full capacity.
    fn fail_resource(&mut self, port: usize) -> bool {
        let _ = port;
        false
    }

    /// Brings the resource pool behind `port` back online at its pre-fault
    /// capacity. Returns `true` when the network supports resource faults
    /// and the pool was down.
    fn repair_resource(&mut self, port: usize) -> bool {
        let _ = port;
        false
    }

    /// Fails a structural element (bus/arbiter, crossbar cell, interchange
    /// box, central scheduler — indexed per network, see
    /// [`ResourceNetwork::fault_elements`]).
    ///
    /// Element failures are *fail-open*: circuits already established
    /// through the element complete normally, but the element contributes
    /// nothing to future scheduling until repaired. Returns `true` when
    /// the element exists, faults are supported, and it was up.
    fn fail_element(&mut self, element: usize) -> bool {
        let _ = element;
        false
    }

    /// Repairs a structural element. Returns `true` when the element
    /// exists, faults are supported, and it was down.
    fn repair_element(&mut self, element: usize) -> bool {
        let _ = element;
        false
    }

    /// Number of structural elements addressable by
    /// [`ResourceNetwork::fail_element`] (0 when element faults are not
    /// supported).
    fn fault_elements(&self) -> usize {
        0
    }

    /// Short human-readable label (e.g. `"SBUS"`, `"OMEGA"`).
    fn label(&self) -> &'static str {
        "NET"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_rejection_ratio() {
        let c = NetworkCounters {
            attempts: 10,
            rejections: 3,
            ..NetworkCounters::default()
        };
        assert!((c.rejection_ratio() - 0.3).abs() < 1e-12);
        assert_eq!(NetworkCounters::default().rejection_ratio(), 0.0);
    }

    #[test]
    fn grant_is_value_like() {
        let g = Grant {
            processor: 1,
            port: 2,
        };
        let h = g;
        assert_eq!(g, h);
        assert!(!format!("{g:?}").is_empty());
    }
}
