//! Multistage network topologies: Omega and indirect binary n-cube.
//!
//! Both networks connect `N = 2^n` inputs to `N` outputs through `n` stages
//! of 2×2 interchange boxes (N/2 boxes per stage) and both are *blocking*:
//! some simultaneous connection sets collide on links. What differs is the
//! interstage wiring — the Omega network applies a perfect shuffle before
//! every stage (Lawrie), the indirect binary n-cube pairs wires differing in
//! one address bit per stage (Pease).
//!
//! A circuit through the network is modeled as the sequence of *output
//! links* it occupies, one per stage; two circuits conflict exactly when
//! they share a link (sharing a 2×2 box through distinct inputs and
//! distinct outputs is always realizable, so boxes themselves never
//! conflict).

use crate::perm::{bit, log2_exact, shuffle, with_bit};

/// One link of a multistage network: the wire leaving `stage` at index
/// `wire` (0-based within the stage boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Stage the link leaves (0-based).
    pub stage: u32,
    /// Wire index within the stage boundary.
    pub wire: usize,
}

/// A source-to-destination circuit: the ordered set of links it occupies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Input (processor-side) port index.
    pub source: usize,
    /// Output (resource-side) port index.
    pub dest: usize,
    /// Output link per stage, in stage order.
    pub links: Vec<Link>,
}

impl Route {
    /// Whether this circuit shares any link with `other`.
    #[must_use]
    pub fn conflicts_with(&self, other: &Route) -> bool {
        self.links.iter().any(|l| other.links.contains(l))
    }
}

/// The links held circuits occupy, in one or more copies of an `N × N`
/// multistage fabric, with a lane capacity per link: a link carries up to
/// `lanes` circuits at once (one in the paper's networks, more in a
/// multi-lane MIN). Only the per-link load is kept, so an owner releases a
/// circuit by recomputing its [`Route`] from the endpoints it holds.
///
/// # Examples
///
/// ```
/// use rsin_topology::{LinkFabric, Multistage, OmegaTopology};
///
/// let omega = OmegaTopology::new(8)?;
/// let mut fabric = LinkFabric::new(&omega, 1, 1);
/// let (a, b) = (omega.route(0, 0), omega.route(4, 2));
/// fabric.claim(0, &a);
/// assert!(!fabric.route_free(0, &b), "0→0 and 4→2 share a stage-0 link");
/// fabric.release(0, &a);
/// assert!(fabric.route_free(0, &b) && fabric.is_idle());
/// # Ok::<(), rsin_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkFabric {
    size: usize,
    stages: usize,
    lanes: u8,
    /// Circuits per link, flattened `[copy][stage][wire]`.
    load: Vec<u8>,
}

impl LinkFabric {
    /// An idle fabric of `copies` copies of `net`, `lanes` circuits per
    /// link.
    ///
    /// # Panics
    ///
    /// Panics if `copies` or `lanes` is zero.
    #[must_use]
    pub fn new(net: &dyn Multistage, copies: usize, lanes: u8) -> Self {
        assert!(copies > 0 && lanes > 0, "need at least one copy and lane");
        let (size, stages) = (net.size(), net.stages() as usize);
        LinkFabric {
            size,
            stages,
            lanes,
            load: vec![0; copies * stages * size],
        }
    }

    fn slot(&self, copy: usize, link: Link) -> usize {
        debug_assert!(link.wire < self.size && (link.stage as usize) < self.stages);
        (copy * self.stages + link.stage as usize) * self.size + link.wire
    }

    /// Whether every link of `route` in `copy` has a lane left.
    #[must_use]
    pub fn route_free(&self, copy: usize, route: &Route) -> bool {
        route
            .links
            .iter()
            .all(|&l| self.load[self.slot(copy, l)] < self.lanes)
    }

    /// Whether every link of `route` in `copy` carries at least one
    /// circuit — true of any route claimed and not yet released.
    #[must_use]
    pub fn holds(&self, copy: usize, route: &Route) -> bool {
        route
            .links
            .iter()
            .all(|&l| self.load[self.slot(copy, l)] > 0)
    }

    /// Takes one lane of every link of `route` in `copy`.
    pub fn claim(&mut self, copy: usize, route: &Route) {
        debug_assert!(self.route_free(copy, route), "claiming a full link");
        for &l in &route.links {
            let s = self.slot(copy, l);
            self.load[s] += 1;
        }
    }

    /// Returns the lanes [`LinkFabric::claim`] took for `route`.
    ///
    /// # Panics
    ///
    /// Panics if a link of `route` carries no circuit.
    pub fn release(&mut self, copy: usize, route: &Route) {
        assert!(self.holds(copy, route), "releasing a free link");
        for &l in &route.links {
            let s = self.slot(copy, l);
            self.load[s] -= 1;
        }
    }

    /// Frees every link.
    pub fn clear(&mut self) {
        self.load.fill(0);
    }

    /// Whether no link carries a circuit.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.load.iter().all(|&l| l == 0)
    }
}

/// A 2×2-box multistage topology with destination-tag routing.
///
/// The trait is object-safe so simulators can hold `Box<dyn Multistage>`.
pub trait Multistage: std::fmt::Debug + Send + Sync {
    /// Number of input (= output) ports, a power of two.
    fn size(&self) -> usize;

    /// Number of stages (`log2(size)`).
    fn stages(&self) -> u32;

    /// The unique destination-tag route from `source` to `dest`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `source` or `dest` is out of range.
    fn route(&self, source: usize, dest: usize) -> Route;

    /// The interchange box (stage, box index) that produces `link`.
    fn box_of(&self, link: Link) -> (u32, usize) {
        (link.stage, link.wire >> 1)
    }
}

/// The Omega network (Lawrie): a perfect shuffle before each of the
/// `log2 N` box stages.
///
/// # Examples
///
/// ```
/// use rsin_topology::{Multistage, OmegaTopology};
///
/// let omega = OmegaTopology::new(8)?;
/// let route = omega.route(3, 5);
/// assert_eq!(route.links.len(), 3);
/// assert_eq!(route.links.last().unwrap().wire, 5);
/// # Ok::<(), rsin_topology::TopologyError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OmegaTopology {
    bits: u32,
}

/// The indirect binary n-cube network (Pease): stage `k` pairs wires that
/// differ in address bit `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CubeTopology {
    bits: u32,
}

/// Errors constructing a topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The port count must be a power of two and at least 2.
    NotPowerOfTwo {
        /// The offending size.
        size: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::NotPowerOfTwo { size } => {
                write!(f, "network size must be a power of two >= 2, got {size}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl OmegaTopology {
    /// Creates an `size × size` Omega network.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NotPowerOfTwo`] unless `size` is a power of two ≥ 2.
    pub fn new(size: usize) -> Result<Self, TopologyError> {
        match log2_exact(size) {
            Some(bits) if bits >= 1 => Ok(OmegaTopology { bits }),
            _ => Err(TopologyError::NotPowerOfTwo { size }),
        }
    }
}

impl Multistage for OmegaTopology {
    fn size(&self) -> usize {
        1 << self.bits
    }

    fn stages(&self) -> u32 {
        self.bits
    }

    fn route(&self, source: usize, dest: usize) -> Route {
        let n = self.size();
        assert!(source < n && dest < n, "port out of range");
        let mut w = source;
        let mut links = Vec::with_capacity(self.bits as usize);
        for k in 0..self.bits {
            w = shuffle(self.bits, w);
            let boxid = w >> 1;
            let out = bit(dest, self.bits - 1 - k);
            w = (boxid << 1) | out;
            links.push(Link { stage: k, wire: w });
        }
        debug_assert_eq!(w, dest, "destination-tag routing must terminate at dest");
        Route {
            source,
            dest,
            links,
        }
    }
}

impl CubeTopology {
    /// Creates an `size × size` indirect binary n-cube network.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NotPowerOfTwo`] unless `size` is a power of two ≥ 2.
    pub fn new(size: usize) -> Result<Self, TopologyError> {
        match log2_exact(size) {
            Some(bits) if bits >= 1 => Ok(CubeTopology { bits }),
            _ => Err(TopologyError::NotPowerOfTwo { size }),
        }
    }
}

impl Multistage for CubeTopology {
    fn size(&self) -> usize {
        1 << self.bits
    }

    fn stages(&self) -> u32 {
        self.bits
    }

    fn route(&self, source: usize, dest: usize) -> Route {
        let n = self.size();
        assert!(source < n && dest < n, "port out of range");
        let mut w = source;
        let mut links = Vec::with_capacity(self.bits as usize);
        for k in 0..self.bits {
            w = with_bit(w, k, bit(dest, k));
            links.push(Link { stage: k, wire: w });
        }
        debug_assert_eq!(w, dest, "destination-tag routing must terminate at dest");
        Route {
            source,
            dest,
            links,
        }
    }

    fn box_of(&self, link: Link) -> (u32, usize) {
        // Stage-k boxes pair wires differing in bit k: drop bit k.
        let k = link.stage;
        let w = link.wire;
        let high = (w >> (k + 1)) << k;
        let low = w & ((1usize << k) - 1);
        (k, high | low)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_routes_terminate_at_destination() {
        let omega = OmegaTopology::new(16).expect("power of two");
        for s in 0..16 {
            for d in 0..16 {
                let r = omega.route(s, d);
                assert_eq!(r.links.len(), 4);
                assert_eq!(r.links.last().expect("nonempty").wire, d);
                assert_eq!(r.source, s);
                assert_eq!(r.dest, d);
            }
        }
    }

    #[test]
    fn cube_routes_terminate_at_destination() {
        let cube = CubeTopology::new(16).expect("power of two");
        for s in 0..16 {
            for d in 0..16 {
                let r = cube.route(s, d);
                assert_eq!(r.links.last().expect("nonempty").wire, d);
            }
        }
    }

    #[test]
    fn identical_route_conflicts_with_itself() {
        let omega = OmegaTopology::new(8).expect("power of two");
        let r = omega.route(0, 0);
        assert!(r.conflicts_with(&r));
    }

    #[test]
    fn distinct_destinations_never_conflict_at_last_stage() {
        let omega = OmegaTopology::new(8).expect("power of two");
        let a = omega.route(0, 3);
        let b = omega.route(1, 4);
        let last_a = a.links.last().expect("nonempty");
        let last_b = b.links.last().expect("nonempty");
        assert_ne!(last_a.wire, last_b.wire);
    }

    #[test]
    fn omega_identity_permutation_is_conflict_free() {
        // The identity permutation routes without conflicts in an Omega net.
        let omega = OmegaTopology::new(8).expect("power of two");
        let routes: Vec<Route> = (0..8).map(|i| omega.route(i, i)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert!(
                    !routes[i].conflicts_with(&routes[j]),
                    "identity must be realizable: {i} vs {j}"
                );
            }
        }
    }

    #[test]
    fn omega_known_blocking_pair() {
        // Classic Omega blocking: sources 0 and 1 to destinations 0 and 1...
        // actually 0→0 and 4→1 collide at stage 0 (both shuffle onto box 0
        // and need distinct outputs — fine), so test a genuinely colliding
        // pair: 0→0 and 4→2 share the stage-0 output wire 0.
        let omega = OmegaTopology::new(8).expect("power of two");
        let a = omega.route(0, 0);
        let b = omega.route(4, 2);
        assert!(a.conflicts_with(&b), "{a:?} vs {b:?}");
    }

    #[test]
    fn box_of_groups_wire_pairs() {
        let omega = OmegaTopology::new(8).expect("power of two");
        assert_eq!(omega.box_of(Link { stage: 1, wire: 4 }), (1, 2));
        assert_eq!(omega.box_of(Link { stage: 1, wire: 5 }), (1, 2));
        let cube = CubeTopology::new(8).expect("power of two");
        // Stage 1 pairs w and w^2: wires 4 and 6 share a box.
        assert_eq!(
            cube.box_of(Link { stage: 1, wire: 4 }),
            cube.box_of(Link { stage: 1, wire: 6 })
        );
        assert_ne!(
            cube.box_of(Link { stage: 1, wire: 4 }),
            cube.box_of(Link { stage: 1, wire: 5 })
        );
    }

    /// With one lane, the fabric answers exactly what the pairwise
    /// conflict scan over the held routes answers, through any sequence of
    /// claims and releases, in every copy and under both wirings.
    #[test]
    fn one_lane_route_free_matches_the_pairwise_conflict_scan() {
        rsin_minicheck::check(200, |g| {
            let size = 1 << g.usize_in(1, 6);
            let net: Box<dyn Multistage> = if g.bool() {
                Box::new(OmegaTopology::new(size).expect("power of two"))
            } else {
                Box::new(CubeTopology::new(size).expect("power of two"))
            };
            let copies = g.usize_in(1, 3);
            let mut fabric = LinkFabric::new(net.as_ref(), copies, 1);
            let mut held: Vec<Vec<Route>> = vec![Vec::new(); copies];
            for _ in 0..64 {
                let copy = g.usize_in(0, copies);
                let route = net.route(g.usize_in(0, size), g.usize_in(0, size));
                let free = held[copy].iter().all(|h| !h.conflicts_with(&route));
                assert_eq!(fabric.route_free(copy, &route), free, "{route:?}");
                if free && g.bool() {
                    fabric.claim(copy, &route);
                    held[copy].push(route);
                } else if !held[copy].is_empty() && g.bool() {
                    let at = g.usize_in(0, held[copy].len());
                    let gone = held[copy].swap_remove(at);
                    assert!(fabric.holds(copy, &gone));
                    fabric.release(copy, &gone);
                }
            }
            for (copy, routes) in held.iter().enumerate() {
                for route in routes {
                    fabric.release(copy, route);
                }
            }
            assert!(fabric.is_idle());
        });
    }

    #[test]
    fn lanes_admit_that_many_circuits_per_link() {
        let omega = OmegaTopology::new(4).expect("power of two");
        let mut fabric = LinkFabric::new(&omega, 1, 2);
        let route = omega.route(0, 0);
        fabric.claim(0, &route);
        assert!(fabric.route_free(0, &route), "a second lane is left");
        fabric.claim(0, &route);
        assert!(!fabric.route_free(0, &route));
        fabric.clear();
        assert!(fabric.is_idle() && !fabric.holds(0, &route));
    }

    #[test]
    #[should_panic(expected = "releasing a free link")]
    fn releasing_an_unheld_route_panics() {
        let omega = OmegaTopology::new(4).expect("power of two");
        let mut fabric = LinkFabric::new(&omega, 1, 1);
        fabric.release(0, &omega.route(1, 2));
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(OmegaTopology::new(6).is_err());
        assert!(OmegaTopology::new(0).is_err());
        assert!(OmegaTopology::new(1).is_err());
        assert!(CubeTopology::new(12).is_err());
        let err = OmegaTopology::new(6).expect_err("must fail");
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn trait_objects_work() {
        let nets: Vec<Box<dyn Multistage>> = vec![
            Box::new(OmegaTopology::new(8).expect("ok")),
            Box::new(CubeTopology::new(8).expect("ok")),
        ];
        for net in &nets {
            assert_eq!(net.size(), 8);
            assert_eq!(net.stages(), 3);
            let r = net.route(2, 6);
            assert_eq!(r.links.len(), 3);
        }
    }
}
