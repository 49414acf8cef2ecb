//! # rsin-topology — multistage network topologies for resource sharing
//!
//! Topology substrate for the RSIN reproduction (Wah, 1983): the wiring,
//! routing, and conflict structure of the multistage networks the paper
//! evaluates, independent of any scheduling policy or queueing dynamics.
//!
//! - [`shuffle`] / [`unshuffle`] and friends: the bit permutations behind
//!   the wirings.
//! - [`OmegaTopology`] and [`CubeTopology`]: `N×N` blocking networks of 2×2
//!   interchange boxes with destination-tag routing ([`Multistage`]).
//! - [`Route`] / [`Link`]: circuits as link sets, with conflict detection.
//! - [`LinkFabric`]: the links held circuits occupy, per fabric copy and
//!   with a lane capacity per link — the one link table every simulated
//!   circuit-switched network keeps.
//! - [`matching`]: centralized-scheduler baselines — exhaustive optimal
//!   matching (the paper's `(x choose y)·y!` enumeration) and first-fit
//!   greedy — plus verification of the paper's Section II blocking example.
//!
//! # Example
//!
//! ```
//! use rsin_topology::{matching, Multistage, OmegaTopology};
//!
//! let net = OmegaTopology::new(8)?;
//! // Processors 0,1,2 request; resources 0,1,2 are free (Section II).
//! let best = matching::max_allocation(&net, &[0, 1, 2], &[0, 1, 2]);
//! assert_eq!(best.len(), 3); // a clever scheduler allocates all three
//!
//! // ...but the fixed mapping (0→0, 1→2, 2→1) blocks:
//! assert!(!matching::mapping_is_conflict_free(
//!     &net,
//!     &[(0, 0), (1, 2), (2, 1)],
//! ));
//! # Ok::<(), rsin_topology::TopologyError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod matching;
mod multistage;
mod perm;

pub use multistage::{
    CubeTopology, Link, LinkFabric, Multistage, OmegaTopology, Route, TopologyError,
};
pub use perm::{bit, log2_exact, shuffle, unshuffle, with_bit};
