//! Deterministic chaos schedules for the runtime broker: seeded client
//! panics, stalls, and slow-release stragglers, plus resource fault
//! schedules reused straight from `rsin_des` fault machinery.
//!
//! A [`ChaosPlan`] is the runtime twin of the DES's [`FaultPlan`]:
//! inert, seed-deterministic
//! data describing *which client threads misbehave and when*, in model
//! time. The load driver ([`run`](crate::loadgen::run)) executes it — a
//! `Crash` makes the victim thread leak its grant (the guard is
//! deliberately forgotten, simulating fail-stop death mid-protocol) and
//! genuinely unwind via `panic!`; a `Stall` makes the victim sit on its
//! grant far past the lease, turning it into a slow-release straggler that
//! the supervisor evicts and whose own late release must land as
//! harmlessly stale.
//!
//! Resource-side degradation does not get a parallel mechanism: chaos
//! options carry an actual [`rsin_des::FaultPlan`], materialized
//! with the same seed-derived streams the simulator uses, so the runtime
//! and the DES can be driven by the *identical* fault event sequence —
//! that identity is what the degraded-mode cross-validation suite rests
//! on. [`FaultTarget::Element`](rsin_des::FaultTarget::Element)
//! events are ignored here (the runtime brokers have no central element to
//! kill; the [`CentralBroker`](crate::CentralBroker) SPOF baseline models
//! that instead).
//!
//! `ChaosSpec` is the flat, parseable form used by `broker_bench`'s
//! `--chaos` flag and the `RSIN_BROKER_CHAOS` environment variable,
//! following the workspace's `RSIN_CHAOS` convention.

use crate::WorkerId;
use rsin_des::{FaultPlan, SimRng};
use std::time::Duration;

/// What a chaos event does to its victim thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ClientChaos {
    /// Fail-stop death while holding a grant: the grant leaks (no release,
    /// no audit) and the thread unwinds by panic.
    Crash,
    /// Hold the current grant an extra interval (model units) — far past
    /// the lease, so the supervisor evicts a live straggler.
    StallFor(f64),
}

/// One scheduled misbehavior of one worker thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientEvent {
    /// Model time at which the victim's *next grant* misbehaves.
    pub at: f64,
    /// The victim worker.
    pub worker: WorkerId,
    /// What it does.
    pub kind: ClientChaos,
}

/// A seeded, deterministic schedule of client-thread misbehavior.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    events: Vec<ClientEvent>,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Adds one event (kept sorted by time).
    #[must_use]
    pub fn with(mut self, event: ClientEvent) -> Self {
        self.events.push(event);
        self.events.sort_by(|a, b| a.at.total_cmp(&b.at));
        self
    }

    /// A seeded plan crashing `crash_frac` and stalling `stall_frac` of
    /// the `workers` threads (each fraction rounded up, victims disjoint),
    /// at uniform times inside `window` (model units). Stalls last
    /// `stall_for` model units. Fully deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fractions sum past 1, the window is empty, or
    /// `stall_for` is not positive.
    #[must_use]
    pub fn seeded(
        seed: u64,
        workers: usize,
        crash_frac: f64,
        stall_frac: f64,
        window: (f64, f64),
        stall_for: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&crash_frac) && (0.0..=1.0).contains(&stall_frac),
            "chaos fractions must be in [0, 1]"
        );
        assert!(window.0 < window.1, "empty chaos window");
        assert!(stall_for > 0.0, "stall duration must be positive");
        let n_crash = ((workers as f64 * crash_frac).ceil() as usize).min(workers);
        let n_stall = ((workers as f64 * stall_frac).ceil() as usize).min(workers - n_crash);
        assert!(
            n_crash + n_stall <= workers,
            "chaos fractions select more victims than workers"
        );
        let mut rng = SimRng::new(seed).derive(0xC4A0);
        let mut victims: Vec<WorkerId> = (0..workers).collect();
        rng.shuffle(&mut victims);
        let mut events = Vec::with_capacity(n_crash + n_stall);
        for (i, &worker) in victims.iter().take(n_crash + n_stall).enumerate() {
            let at = rng.uniform_in(window.0, window.1);
            let kind = if i < n_crash {
                ClientChaos::Crash
            } else {
                ClientChaos::StallFor(stall_for)
            };
            events.push(ClientEvent { at, worker, kind });
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        ChaosPlan { events }
    }

    /// All events, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[ClientEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events aimed at one worker, in time order.
    #[must_use]
    pub fn for_worker(&self, worker: WorkerId) -> Vec<ClientEvent> {
        self.events
            .iter()
            .copied()
            .filter(|e| e.worker == worker)
            .collect()
    }

    /// Model time after which every scheduled misbehavior (including
    /// stall tails) has begun and ended — the "post-chaos" horizon the
    /// liveness assertions count grants after.
    #[must_use]
    pub fn horizon(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e.kind {
                ClientChaos::Crash => e.at,
                ClientChaos::StallFor(s) => e.at + s,
            })
            .fold(0.0, f64::max)
    }

    /// Number of scheduled crashes.
    #[must_use]
    pub fn crashes(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == ClientChaos::Crash)
            .count()
    }

    /// Number of scheduled stalls.
    #[must_use]
    pub fn stalls(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, ClientChaos::StallFor(_)))
            .count()
    }
}

/// Everything a chaos-aware load run needs beyond the [`LoadConfig`]:
/// the client misbehavior schedule, the resource fault schedule, and the
/// supervisor cadence.
///
/// [`LoadConfig`]: crate::loadgen::LoadConfig
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Client-thread misbehavior (crashes, stalls).
    pub plan: ChaosPlan,
    /// Resource fail/repair schedule, straight from the DES fault
    /// machinery. [`rsin_des::FaultTarget::Resource`] indices map
    /// to broker resource indices; `Element` events are ignored.
    pub faults: FaultPlan,
    /// Seed materializing the fault plan's stochastic processes (the same
    /// seed fed to the DES reproduces the identical event sequence).
    pub fault_seed: u64,
    /// Lease duration the broker was built with; the supervisor polls a
    /// few times per lease so expiry is detected promptly.
    pub lease: Duration,
}

impl ChaosOptions {
    /// Options with no resource faults.
    #[must_use]
    pub fn new(plan: ChaosPlan, lease: Duration) -> Self {
        ChaosOptions {
            plan,
            faults: FaultPlan::new(),
            fault_seed: 1,
            lease,
        }
    }

    /// How often the supervisor wakes to reclaim and apply faults.
    #[must_use]
    pub fn supervisor_poll(&self) -> Duration {
        (self.lease / 4).clamp(Duration::from_micros(50), Duration::from_millis(2))
    }
}

/// Flat, parseable chaos description for `broker_bench --chaos` and the
/// `RSIN_BROKER_CHAOS` environment variable.
///
/// Format: comma-separated `key=value` pairs — `kill=<frac>`,
/// `stall=<frac>`, `seed=<u64>`, and optionally `mtbf=<f64>`/`mttr=<f64>`
/// (both or neither) for a stochastic single-resource fault process.
/// Example: `kill=0.25,stall=0.25,seed=7,mtbf=40,mttr=8`.
///
/// In net mode (`broker_bench --connect`) two more keys apply:
/// `trunc=<frac>` clients write a truncated frame then close, and
/// `junk=<frac>` clients write byte garbage mid-stream. In thread mode
/// those fractions must stay 0 (there is no wire to corrupt), which the
/// bench layer enforces; `kill` maps to a mid-grant connection drop and
/// `stall` to a half-open stall held past the lease.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosSpec {
    /// Fraction of client threads crashed mid-protocol.
    pub kill: f64,
    /// Fraction of client threads stalled past their lease.
    pub stall: f64,
    /// Net mode only: fraction of clients that send a truncated frame then
    /// close mid-grant.
    pub trunc: f64,
    /// Net mode only: fraction of clients that inject byte garbage
    /// mid-stream.
    pub junk: f64,
    /// Seed for the client schedule and the fault timeline.
    pub seed: u64,
    /// Mean model time between failures of resource 0, if faulting.
    pub mtbf: Option<f64>,
    /// Mean model time to repair, if faulting.
    pub mttr: Option<f64>,
}

impl ChaosSpec {
    /// Parses the `key=value,...` form; returns a human-readable message
    /// on malformed input (callers wrap it in their typed parse error).
    pub fn parse(spec: &str) -> Result<ChaosSpec, String> {
        let mut out = ChaosSpec {
            kill: 0.0,
            stall: 0.0,
            trunc: 0.0,
            junk: 0.0,
            seed: 1,
            mtbf: None,
            mttr: None,
        };
        if spec.trim().is_empty() {
            return Err("empty chaos spec".into());
        }
        for pair in spec.split(',') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec item `{pair}` is not key=value"))?;
            let bad = |what: &str| format!("chaos spec `{key}` has invalid {what}: `{value}`");
            let frac = |value: &str| -> Result<f64, String> {
                let v: f64 = value.trim().parse().map_err(|_| bad("fraction"))?;
                if !(0.0..=1.0).contains(&v) {
                    return Err(bad("fraction (want 0..=1)"));
                }
                Ok(v)
            };
            match key.trim() {
                "kill" => out.kill = frac(value)?,
                "stall" => out.stall = frac(value)?,
                "trunc" => out.trunc = frac(value)?,
                "junk" => out.junk = frac(value)?,
                "seed" => out.seed = value.trim().parse().map_err(|_| bad("seed"))?,
                "mtbf" => {
                    let v: f64 = value.trim().parse().map_err(|_| bad("time"))?;
                    if !(v.is_finite() && v > 0.0) {
                        return Err(bad("time (want > 0)"));
                    }
                    out.mtbf = Some(v);
                }
                "mttr" => {
                    let v: f64 = value.trim().parse().map_err(|_| bad("time"))?;
                    if !(v.is_finite() && v > 0.0) {
                        return Err(bad("time (want > 0)"));
                    }
                    out.mttr = Some(v);
                }
                other => return Err(format!("unknown chaos spec key `{other}`")),
            }
        }
        let victims = out.kill + out.stall + out.trunc + out.junk;
        if victims > 1.0 {
            return Err(format!(
                "kill + stall + trunc + junk = {victims} selects more victims than workers"
            ));
        }
        if out.mtbf.is_some() != out.mttr.is_some() {
            return Err("mtbf and mttr must be given together".into());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_sized() {
        let p = ChaosPlan::seeded(7, 10, 0.2, 0.1, (10.0, 50.0), 5.0);
        let q = ChaosPlan::seeded(7, 10, 0.2, 0.1, (10.0, 50.0), 5.0);
        assert_eq!(p.events(), q.events(), "same seed, same plan");
        let r = ChaosPlan::seeded(8, 10, 0.2, 0.1, (10.0, 50.0), 5.0);
        assert_ne!(p.events(), r.events(), "different seed, different plan");
        assert_eq!(p.crashes(), 2);
        assert_eq!(p.stalls(), 1);
        let mut victims: Vec<_> = p.events().iter().map(|e| e.worker).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 3, "victims are disjoint");
        for e in p.events() {
            assert!((10.0..50.0).contains(&e.at));
        }
        assert!(p.horizon() >= 10.0 && p.horizon() < 55.0);
    }

    #[test]
    fn events_stay_time_sorted_and_filterable() {
        let p = ChaosPlan::new()
            .with(ClientEvent {
                at: 9.0,
                worker: 1,
                kind: ClientChaos::Crash,
            })
            .with(ClientEvent {
                at: 3.0,
                worker: 0,
                kind: ClientChaos::StallFor(2.0),
            });
        assert_eq!(p.events()[0].worker, 0, "sorted by time");
        assert_eq!(p.for_worker(1).len(), 1);
        assert_eq!(p.horizon(), 9.0);
    }

    #[test]
    fn spec_parses_the_full_form() {
        let s = ChaosSpec::parse("kill=0.25,stall=0.25,seed=7,mtbf=40,mttr=8").expect("valid");
        assert_eq!(
            s,
            ChaosSpec {
                kill: 0.25,
                stall: 0.25,
                trunc: 0.0,
                junk: 0.0,
                seed: 7,
                mtbf: Some(40.0),
                mttr: Some(8.0),
            }
        );
        let minimal = ChaosSpec::parse("kill=0.5").expect("valid");
        assert_eq!(minimal.kill, 0.5);
        assert_eq!(minimal.seed, 1);
        let net = ChaosSpec::parse("kill=0.2,trunc=0.2,junk=0.2,seed=3").expect("valid");
        assert_eq!(net.trunc, 0.2);
        assert_eq!(net.junk, 0.2);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "",
            "kill",
            "kill=x",
            "kill=1.5",
            "stall=-0.1",
            "seed=abc",
            "bogus=1",
            "kill=0.6,stall=0.6",
            "kill=0.4,stall=0.3,trunc=0.3,junk=0.3",
            "trunc=2",
            "junk=nope",
            "mtbf=40",
            "mttr=0",
        ] {
            assert!(ChaosSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }
}
