//! The `ResourceNetwork` abstraction: what every RSIN must implement.
//!
//! The simulator is network-agnostic. At every decision epoch it hands the
//! network one [`PendingSet`]: the processors whose head-of-queue task is
//! awaiting a resource, and the type each requests. The network — using
//! whatever distributed scheduling discipline it implements — returns the
//! set of granted connections. The simulator then drives each connection
//! through the paper's task lifecycle:
//!
//! ```text
//! arrival → queue at processor → [request cycle(s)] → Grant
//!        → transmission (circuit held, Exp(µ_n)) → end_transmission
//!        → service at resource (circuit released, Exp(µ_s)) → end_service
//! ```
//!
//! A run may add the result-return leg after service: a
//! [`ReturnNetwork`] carries each result back to its processor.

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
/// zero. The simulator maintains both views incrementally; a network reads
/// whichever suits its arbitration — the bit-sliced ones `words`, the
/// list-based ones `bools` — and never re-packs.
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
/// * the circuit occupies network capacity from the request cycle that
///   grants it until [`ResourceNetwork::end_transmission`]; the resource
///   stays busy until [`ResourceNetwork::end_service`].
///
/// A network implements one arbitration method,
/// [`ResourceNetwork::request_cycle_pending`];
/// [`ResourceNetwork::request_cycle_into`] and
/// [`ResourceNetwork::request_cycle`] are adapters that pack a `&[bool]`
/// request vector into a [`PendingSet`] and call it.
pub trait ResourceNetwork: std::fmt::Debug {
    /// Number of processors (input ports across all partitions).
    fn processors(&self) -> usize;

    /// Total resources across all partitions.
    fn total_resources(&self) -> usize;

    /// Runs one request cycle: the network sees every pending processor
    /// and the type it requests, and appends the connections it grants to
    /// `out`. This is the one arbitration entry a network implements; the
    /// simulator calls it at every decision epoch.
    ///
    /// The contract:
    ///
    /// * the caller hands `out` empty (the simulator drains it every epoch,
    ///   the `&[bool]` adapters clear it), and the network only appends;
    /// * never grant a processor that is not pending, and never grant one
    ///   twice in a cycle;
    /// * land each grant on a port whose [`ResourceNetwork::port_type`] is
    ///   the type the processor requested, `pending.types[processor]`.
    ///
    /// Processors not granted remain queued and are retried at the next
    /// epoch (the paper's "blocked tasks are … retried as soon as the
    /// network indicates that free resources are available").
    fn request_cycle_pending(
        &mut self,
        pending: PendingSet<'_>,
        rng: &mut SimRng,
        out: &mut Vec<Grant>,
    );

    /// [`ResourceNetwork::request_cycle_pending`] from one flag per
    /// processor, every request of type 0, into a caller-owned buffer whose
    /// old contents are discarded. Packs the flags once per call, so it
    /// suits tests and one-off cycles rather than a hot loop.
    fn request_cycle_into(&mut self, pending: &[bool], rng: &mut SimRng, out: &mut Vec<Grant>) {
        let mut words = Vec::new();
        rsin_bitslice::pack_bools(pending, &mut words);
        let types = vec![0; pending.len()];
        out.clear();
        self.request_cycle_pending(
            PendingSet {
                bools: pending,
                words: &words,
                types: &types,
            },
            rng,
            out,
        );
    }

    /// [`ResourceNetwork::request_cycle_into`] into a fresh `Vec`.
    fn request_cycle(&mut self, pending: &[bool], rng: &mut SimRng) -> Vec<Grant> {
        let mut out = Vec::new();
        self.request_cycle_into(pending, rng, &mut out);
        out
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

/// The network that carries each result from its resource back to the
/// processor that sent the task — Section II's "separate address-mapping
/// network with parallel routing since the destination address is known".
/// The destination is known, so nothing is scheduled: a result either gets
/// its circuit or waits at its resource and tries again.
pub trait ReturnNetwork: std::fmt::Debug {
    /// Tries to open the circuit from `grant.port` back to
    /// `grant.processor` for the result of the task `grant` carried.
    /// Returns `false` when the path is blocked.
    fn try_send(&mut self, grant: Grant) -> bool;

    /// The result reached its processor: release the circuit a successful
    /// [`ReturnNetwork::try_send`] of `grant` opened.
    fn end_return(&mut self, grant: Grant);
}

/// A return network that never blocks — the paper's implicit assumption
/// that the result leg is never the bottleneck.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstantReturn;

impl ReturnNetwork for InstantReturn {
    fn try_send(&mut self, _grant: Grant) -> bool {
        true
    }

    fn end_return(&mut self, _grant: Grant) {}
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

    /// Grants every pending processor on port 0 and records what each
    /// request cycle was handed.
    #[derive(Debug, Default)]
    struct Recording {
        p: usize,
        seen: Vec<(Vec<bool>, Vec<u64>, Vec<usize>)>,
    }

    impl ResourceNetwork for Recording {
        fn processors(&self) -> usize {
            self.p
        }
        fn total_resources(&self) -> usize {
            self.p
        }
        fn request_cycle_pending(
            &mut self,
            pending: PendingSet<'_>,
            _rng: &mut SimRng,
            out: &mut Vec<Grant>,
        ) {
            self.seen.push((
                pending.bools.to_vec(),
                pending.words.to_vec(),
                pending.types.to_vec(),
            ));
            out.extend(
                (0..self.p)
                    .filter(|&i| pending.bools[i])
                    .map(|processor| Grant { processor, port: 0 }),
            );
        }
        fn end_transmission(&mut self, _grant: Grant) {}
        fn end_service(&mut self, _grant: Grant) {}
    }

    /// The `&[bool]` adapters hand the one entry the packed flags (tail
    /// lanes zero), every request at type 0, and an `out` with no stale
    /// grants in it.
    #[test]
    fn bool_adapters_pack_into_the_one_entry() {
        let mut rng = SimRng::new(3);
        for p in [1usize, 63, 64, 65, 130] {
            let bools: Vec<bool> = (0..p).map(|i| i % 3 != 1).collect();
            let mut words = vec![0u64; p.div_ceil(64)];
            for i in (0..p).filter(|&i| bools[i]) {
                words[i / 64] |= 1 << (i % 64);
            }
            let expected: Vec<Grant> = (0..p)
                .filter(|&i| bools[i])
                .map(|processor| Grant { processor, port: 0 })
                .collect();
            let mut net = Recording {
                p,
                ..Recording::default()
            };
            assert_eq!(net.request_cycle(&bools, &mut rng), expected, "p = {p}");
            let stale = Grant {
                processor: p,
                port: 7,
            };
            let mut out = vec![stale];
            net.request_cycle_into(&bools, &mut rng, &mut out);
            assert_eq!(out, expected, "p = {p}: a stale grant came back");
            assert_eq!(net.seen.len(), 2);
            for (seen_bools, seen_words, seen_types) in &net.seen {
                assert_eq!(seen_bools, &bools, "p = {p}");
                assert_eq!(seen_words, &words, "p = {p}: packing or tail lanes");
                assert_eq!(seen_types, &vec![0; p], "p = {p}");
            }
        }
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
