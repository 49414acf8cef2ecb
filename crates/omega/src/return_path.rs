//! The result-return network: a second, address-mapped Omega fabric.
//!
//! Section II: results are routed back to their originating processor "by a
//! separate address-mapping network with parallel routing since the
//! destination address is known". This is that network — a mirror-image
//! Omega carrying circuits from resource ports back to processors, with no
//! scheduling intelligence needed (the destination is known) but with real
//! link contention.

use rsin_core::{Grant, ReturnNetwork};
use rsin_topology::{LinkFabric, Multistage, OmegaTopology, Route};

/// An address-mapped Omega return fabric.
///
/// # Examples
///
/// ```
/// use rsin_core::{Grant, ReturnNetwork};
/// use rsin_omega::OmegaReturnPath;
///
/// let mut ret = OmegaReturnPath::new(8)?;
/// let result = Grant { processor: 5, port: 3 };
/// assert!(ret.try_send(result), "an idle network routes anything");
/// ret.end_return(result);
/// # Ok::<(), rsin_topology::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct OmegaReturnPath {
    topo: OmegaTopology,
    fabric: LinkFabric,
}

impl OmegaReturnPath {
    /// Builds an `size × size` return fabric.
    ///
    /// # Errors
    ///
    /// [`rsin_topology::TopologyError`] unless `size` is a power of two ≥ 2.
    pub fn new(size: usize) -> Result<Self, rsin_topology::TopologyError> {
        let topo = OmegaTopology::new(size)?;
        Ok(OmegaReturnPath {
            topo,
            fabric: LinkFabric::new(&topo, 1, 1),
        })
    }

    /// The return circuit of `grant`'s result: the fabric's inputs are the
    /// resource ports, its outputs the processors. Panics when either is
    /// out of range — a bigger forward network needs a bigger fabric.
    fn route(&self, grant: Grant) -> Route {
        self.topo.route(grant.port, grant.processor)
    }
}

impl ReturnNetwork for OmegaReturnPath {
    fn try_send(&mut self, grant: Grant) -> bool {
        let route = self.route(grant);
        let free = self.fabric.route_free(0, &route);
        if free {
            self.fabric.claim(0, &route);
        }
        free
    }

    fn end_return(&mut self, grant: Grant) {
        let route = self.route(grant);
        assert!(
            self.fabric.holds(0, &route),
            "end_return of {grant:?} without an active return circuit"
        );
        self.fabric.release(0, &route);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::{
        simulate, simulate_round_trip, InstantReturn, SimOptions, SystemConfig, Workload,
    };
    use rsin_des::SimRng;

    fn result(port: usize, processor: usize) -> Grant {
        Grant { processor, port }
    }

    #[test]
    fn idle_network_routes_everything() {
        let mut ret = OmegaReturnPath::new(8).expect("8x8");
        let (a, b) = (result(0, 7), result(1, 3));
        assert!(ret.try_send(a), "free");
        assert!(ret.try_send(b), "still free on distinct links");
        assert!(ret.fabric.holds(0, &ret.route(a)) && ret.fabric.holds(0, &ret.route(b)));
        ret.end_return(a);
        ret.end_return(b);
        assert!(ret.fabric.is_idle());
    }

    #[test]
    fn conflicting_returns_block_until_released() {
        let mut ret = OmegaReturnPath::new(8).expect("8x8");
        // Same final wire: port X → processor 5 twice must conflict.
        assert!(ret.try_send(result(0, 5)), "free");
        assert!(!ret.try_send(result(4, 5)), "same destination wire blocks");
        ret.end_return(result(0, 5));
        assert!(ret.try_send(result(4, 5)));
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn out_of_range_ports_are_not_aliased() {
        // A 16-port forward network on an 8-port return fabric must not
        // put port 8 on port 0's wire.
        let mut ret = OmegaReturnPath::new(8).expect("8x8");
        let _ = ret.try_send(result(8, 0));
    }

    #[test]
    fn round_trip_through_forward_and_return_omegas() {
        // Full Fig. 1 system: forward RSIN Omega + return address-mapped
        // Omega, 8 processors, one resource per port.
        let cfg: SystemConfig = "8/1x8x8 OMEGA/1".parse().expect("valid");
        let w = Workload::for_intensity(&cfg, 0.4, 0.1).expect("valid");
        let opts = SimOptions {
            warmup_tasks: 1_000,
            measured_tasks: 32_000,
        };
        let fwd = || crate::OmegaNetwork::from_config(&cfg, crate::Admission::Simultaneous);
        let mut ret = OmegaReturnPath::new(8).expect("8x8");
        let report = simulate_round_trip(
            &mut fwd().expect("omega"),
            &mut ret,
            &w,
            w.mu_n(),
            &opts,
            &mut SimRng::new(3),
        );
        assert_eq!(report.round_trip.count(), 32_000);
        assert!(ret.fabric.is_idle(), "every return circuit was released");
        // Round trip ≥ transmission + service + return means.
        let floor = 1.0 / w.mu_n() + 1.0 / w.mu_s() + 1.0 / w.mu_n();
        assert!(report.round_trip.mean() > floor);

        // The paper's justification for ignoring the return leg: at this
        // load its waiting contribution is tiny relative to a service time.
        assert!(
            report.return_wait.mean() < 0.1 / w.mu_s(),
            "return-path wait {} should be negligible",
            report.return_wait.mean()
        );

        // And d is the plain (no-return) simulation's, bit for bit, with
        // either return network.
        let plain = simulate(&mut fwd().expect("omega"), &w, &opts, &mut SimRng::new(3));
        let ideal = simulate_round_trip(
            &mut fwd().expect("omega"),
            &mut InstantReturn,
            &w,
            w.mu_n(),
            &opts,
            &mut SimRng::new(3),
        );
        assert_eq!(report.queueing_delay, plain.queueing_delay);
        assert_eq!(ideal.queueing_delay, plain.queueing_delay);
    }

    #[test]
    #[should_panic(expected = "active return circuit")]
    fn double_release_is_a_bug() {
        let mut ret = OmegaReturnPath::new(4).expect("4x4");
        let t = result(0, 0);
        assert!(ret.try_send(t), "free");
        ret.end_return(t);
        ret.end_return(t);
    }
}
