//! A keyed, bounded cache over the analytic solvers.
//!
//! The figure suite, the provisioning searches, and the Table-II advisor
//! paths all solve the same chains repeatedly — the same `(p, r, λ, µ_n,
//! µ_s)` point shows up in several figures and again in the tables. The
//! cache memoizes [`SharedBusChain::solve`] by exact parameter value
//! (`f64` bit patterns, so keys never alias across distinct inputs) and
//! returns the stored solution verbatim: a cache hit is bit-for-bit the
//! value a fresh chain would produce, making the cache safe for artifact
//! paths that print full-precision floats. Every miss is a cold solve, so
//! every miss is retained: a search that revisits a point (a second
//! provisioning run in the same process, say) is answered from the cache.
//!
//! The cache is bounded: a thousands-of-configs provisioning sweep touches
//! far more distinct points than any figure run, so retained entries are
//! capped and the least-recently-used quarter is evicted when the cap is
//! reached. Hit/miss/eviction counters are exposed through
//! [`shared_bus_cache_stats`] so long sweeps can report their reuse rate.

use crate::error::SolveError;
use crate::sbus::{SharedBusChain, SharedBusParams, SharedBusSolution};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Exact-value key: integer fields plus the bit patterns of the rates.
type Key = (u32, u32, u64, u64, u64);

fn key(p: &SharedBusParams) -> Key {
    (
        p.processors,
        p.resources,
        p.lambda.to_bits(),
        p.mu_n.to_bits(),
        p.mu_s.to_bits(),
    )
}

/// One retained solution, stamped with the logical time of its last use.
struct Entry {
    stamp: u64,
    result: Result<SharedBusSolution, SolveError>,
}

/// The cache body plus its bookkeeping, all behind one lock.
struct CacheState {
    map: HashMap<Key, Entry>,
    /// Logical clock: bumped on every lookup, written into the touched
    /// entry's stamp. Recency order, not wall time.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Counters describing the cache's reuse behavior since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a retained solution.
    pub hits: u64,
    /// Lookups that had to run the solver.
    pub misses: u64,
    /// Entries discarded by the LRU bound.
    pub evictions: u64,
    /// Entries currently retained.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when none yet).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

fn cache() -> &'static Mutex<CacheState> {
    static CACHE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(CacheState {
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        })
    })
}

/// Upper bound on retained entries. Far above any figure run's working set;
/// a provisioning sweep that exceeds it sheds its coldest quarter and keeps
/// going at bounded memory.
const MAX_ENTRIES: usize = 16_384;

/// Evicts the least-recently-used quarter of a full cache. O(n), but runs
/// once per `MAX_ENTRIES/4` insertions, so the amortized cost per insert is
/// constant.
fn evict_lru(state: &mut CacheState) {
    let mut stamps: Vec<u64> = state.map.values().map(|e| e.stamp).collect();
    let cut_index = stamps.len() / 4;
    let (_, &mut cutoff, _) = stamps.select_nth_unstable(cut_index);
    // Everything at or below the cutoff stamp goes (stamps are unique:
    // the clock increments on every touch).
    state.map.retain(|_, e| e.stamp > cutoff);
    state.evictions += (cut_index + 1) as u64;
}

/// [`SharedBusChain::new`] + [`SharedBusChain::solve`], memoized process-wide
/// by exact parameter value with an LRU bound of [`MAX_ENTRIES`] retained
/// solutions. Errors (unstable or invalid parameter points) are cached too,
/// so a grid sweep pays for each infeasible point once.
///
/// # Errors
///
/// Exactly the errors of [`SharedBusChain::new`] and
/// [`SharedBusChain::solve`] for these parameters.
pub fn solve_shared_bus_cached(params: SharedBusParams) -> Result<SharedBusSolution, SolveError> {
    let k = key(&params);
    let mut guard = cache().lock().unwrap_or_else(|p| p.into_inner());
    guard.clock += 1;
    let now = guard.clock;
    if let Some(hit) = guard.map.get_mut(&k) {
        hit.stamp = now;
        let result = hit.result.clone();
        guard.hits += 1;
        return result;
    }
    guard.misses += 1;
    drop(guard);
    // Solve outside the lock: chains are independent and a slow solve must
    // not serialize the parallel suite workers.
    let result = SharedBusChain::new(params).and_then(|c| c.solve());
    let mut guard = cache().lock().unwrap_or_else(|p| p.into_inner());
    if guard.map.len() >= MAX_ENTRIES {
        evict_lru(&mut guard);
    }
    guard.clock += 1;
    let stamp = guard.clock;
    guard.map.entry(k).or_insert_with(|| Entry {
        stamp,
        result: result.clone(),
    });
    result
}

/// A snapshot of the cache's hit/miss/eviction counters and current size.
///
/// Counters are process-wide and monotone; to measure one sweep's reuse,
/// snapshot before and after and difference the fields.
#[must_use]
pub fn shared_bus_cache_stats() -> CacheStats {
    let guard = cache().lock().unwrap_or_else(|p| p.into_inner());
    CacheStats {
        hits: guard.hits,
        misses: guard.misses,
        evictions: guard.evictions,
        entries: guard.map.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(lambda: f64) -> SharedBusParams {
        SharedBusParams {
            processors: 4,
            resources: 3,
            lambda,
            mu_n: 1.0,
            mu_s: 0.25,
        }
    }

    #[test]
    fn hit_is_bitwise_identical_to_fresh_solve() {
        let p = params(0.011);
        let fresh = SharedBusChain::new(p).expect("valid").solve().expect("ok");
        let first = solve_shared_bus_cached(p).expect("ok");
        let second = solve_shared_bus_cached(p).expect("ok");
        // PartialEq on the solution compares every f64 field exactly.
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
    }

    #[test]
    fn errors_are_cached_and_reproduced() {
        let p = SharedBusParams {
            processors: 1,
            resources: 1,
            lambda: 10.0, // far beyond saturation
            mu_n: 1.0,
            mu_s: 1.0,
        };
        let direct = SharedBusChain::new(p).and_then(|c| c.solve());
        let cached = solve_shared_bus_cached(p);
        let again = solve_shared_bus_cached(p);
        assert_eq!(cached, direct);
        assert_eq!(again, direct);
        assert!(cached.is_err());
    }

    #[test]
    fn distinct_params_do_not_alias() {
        let a = solve_shared_bus_cached(params(0.012)).expect("ok");
        let b = solve_shared_bus_cached(params(0.013)).expect("ok");
        assert_ne!(a.mean_queue_delay, b.mean_queue_delay);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let before = shared_bus_cache_stats();
        let p = params(0.017_171); // unlikely to collide with other tests
        let _ = solve_shared_bus_cached(p);
        let _ = solve_shared_bus_cached(p);
        let after = shared_bus_cache_stats();
        assert!(after.misses > before.misses, "first lookup misses");
        assert!(after.hits > before.hits, "second lookup hits");
        assert!(after.entries >= 1);
        assert!(after.hit_rate() > 0.0);
    }

    #[test]
    fn lru_eviction_keeps_the_recently_used_entry() {
        // Exercise the eviction path directly on a private state: fill past
        // the cap, touch one old key, and check the touched key survives the
        // quarter-eviction while the coldest entries go.
        let mut state = CacheState {
            map: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        let sol: Result<SharedBusSolution, SolveError> = Err(SolveError::BadParameter {
            what: "test filler",
        });
        for i in 0..1000u32 {
            state.clock += 1;
            let stamp = state.clock;
            state.map.insert(
                (i, 0, 0, 0, 0),
                Entry {
                    stamp,
                    result: sol.clone(),
                },
            );
        }
        // Touch the very first key so it becomes the most recent.
        state.clock += 1;
        let now = state.clock;
        state.map.get_mut(&(0, 0, 0, 0, 0)).expect("present").stamp = now;
        evict_lru(&mut state);
        assert!(state.map.contains_key(&(0, 0, 0, 0, 0)), "hot key survives");
        assert!(
            !state.map.contains_key(&(1, 0, 0, 0, 0)),
            "coldest key evicted"
        );
        assert_eq!(state.map.len(), 1000 - 251);
        assert_eq!(state.evictions, 251);
    }
}
