//! Bus arbitration policies.
//!
//! When several blocked requests wake simultaneously (a resource freed or
//! the bus became idle), an arbiter selects which processor gets the bus.
//! The paper's hardware is asymmetric — "it favors processors with small
//! index numbers" — and mentions two remedies: randomized request timing,
//! and the POLYP-style circulating token which effectively grants a random
//! waiting processor. Round-robin is included as the textbook fair policy.

use rsin_bitslice::{first_set, rotating_grant, select_nth_set};
use rsin_des::SimRng;

/// How a bus picks among simultaneously pending processors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Arbitration {
    /// Lowest processor index wins — the paper's daisy-chained hardware.
    #[default]
    FixedPriority,
    /// A uniformly random pending processor wins — the POLYP token scheme.
    Random,
    /// Rotating priority starting after the last winner.
    RoundRobin,
}

/// Stateful arbiter for one bus.
#[derive(Clone, Debug)]
pub struct Arbiter {
    policy: Arbitration,
    last_winner: Option<usize>,
}

impl Arbiter {
    /// Creates an arbiter with the given policy.
    #[must_use]
    pub fn new(policy: Arbitration) -> Self {
        Arbiter {
            policy,
            last_winner: None,
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Picks one winner among the candidates, which arrive as a bit mask of
    /// local processor indices on this bus with `count` set lanes. Returns
    /// `None` when `count` is 0. All three policies reduce to
    /// parallel-prefix selects on the packed words (lowest-set isolation,
    /// token-rotated lowest-set, n-th-set), and the random policy draws from
    /// the rng exactly once, bounded by `count` — so a test-only list
    /// arbiter over the same candidates always elects the same winner.
    pub fn pick_packed(
        &mut self,
        candidates: &[u64],
        count: usize,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if count == 0 {
            return None;
        }
        let winner = match self.policy {
            Arbitration::FixedPriority => first_set(candidates).expect("count > 0"),
            Arbitration::Random => {
                select_nth_set(candidates, rng.index(count)).expect("index < count")
            }
            Arbitration::RoundRobin => {
                let start = self.last_winner.map_or(0, |w| w + 1);
                rotating_grant(candidates, start).expect("count > 0")
            }
        };
        self.last_winner = Some(winner);
        Some(winner)
    }
}

/// The candidate-list arbiter, kept as the test oracle for
/// [`Arbiter::pick_packed`].
#[cfg(test)]
impl Arbiter {
    /// Picks one winner among `candidates` (local processor indices on this
    /// bus, ascending). Returns `None` when empty.
    pub(crate) fn pick(&mut self, candidates: &[usize], rng: &mut SimRng) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let winner = match self.policy {
            Arbitration::FixedPriority => candidates[0],
            Arbitration::Random => candidates[rng.index(candidates.len())],
            Arbitration::RoundRobin => {
                let start = self.last_winner.map_or(0, |w| w + 1);
                *candidates
                    .iter()
                    .find(|&&c| c >= start)
                    .unwrap_or(&candidates[0])
            }
        };
        self.last_winner = Some(winner);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_priority_always_picks_lowest() {
        let mut arb = Arbiter::new(Arbitration::FixedPriority);
        let mut rng = SimRng::new(1);
        for _ in 0..10 {
            assert_eq!(arb.pick(&[2, 5, 7], &mut rng), Some(2));
        }
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut arb = Arbiter::new(Arbitration::Random);
        let mut rng = SimRng::new(2);
        let mut seen = [false; 3];
        for _ in 0..200 {
            let w = arb.pick(&[0, 1, 2], &mut rng).expect("nonempty");
            seen[w] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn round_robin_rotates() {
        let mut arb = Arbiter::new(Arbitration::RoundRobin);
        let mut rng = SimRng::new(3);
        assert_eq!(arb.pick(&[0, 1, 2], &mut rng), Some(0));
        assert_eq!(arb.pick(&[0, 1, 2], &mut rng), Some(1));
        assert_eq!(arb.pick(&[0, 1, 2], &mut rng), Some(2));
        assert_eq!(arb.pick(&[0, 1, 2], &mut rng), Some(0), "wraps around");
        assert_eq!(arb.pick(&[0, 2], &mut rng), Some(2), "skips absent");
    }

    #[test]
    fn packed_pick_matches_list_pick_for_every_policy() {
        for policy in [
            Arbitration::FixedPriority,
            Arbitration::Random,
            Arbitration::RoundRobin,
        ] {
            let mut list = Arbiter::new(policy);
            let mut packed = Arbiter::new(policy);
            let mut rng_a = SimRng::new(77);
            let mut rng_b = SimRng::new(77);
            let mut lcg = 0x5eedu64;
            for _ in 0..300 {
                // Random candidate sets over 0..150 (multi-word masks).
                let mut candidates = Vec::new();
                let mut words = vec![0u64; 3];
                for i in 0..150 {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    if (lcg >> 33).is_multiple_of(5) {
                        candidates.push(i);
                        words[i / 64] |= 1 << (i % 64);
                    }
                }
                let a = list.pick(&candidates, &mut rng_a);
                let b = packed.pick_packed(&words, candidates.len(), &mut rng_b);
                assert_eq!(a, b, "{policy:?} diverged on {candidates:?}");
            }
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        for policy in [
            Arbitration::FixedPriority,
            Arbitration::Random,
            Arbitration::RoundRobin,
        ] {
            let mut arb = Arbiter::new(policy);
            let mut rng = SimRng::new(4);
            assert_eq!(arb.pick(&[], &mut rng), None);
        }
    }
}
