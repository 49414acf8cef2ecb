//! Deterministic scoped-thread parallelism for embarrassingly parallel
//! sweeps.
//!
//! The RSIN studies are Monte Carlo sweeps — ρ-grid × network class ×
//! replications — whose units of work are mutually independent. This module
//! provides the one primitive every layer of the stack shares:
//! [`scope_map`], a work-stealing map over a slice that collects results
//! **by index**, so the output is a pure function of the input regardless of
//! the worker count. Built entirely on `std::thread::scope` — no
//! dependencies, no global thread pool, no unsafe.
//!
//! # Determinism
//!
//! Each unit of work receives only its index and its item; workers share no
//! mutable state beyond the index counter. Results are returned in input
//! order, so `scope_map(items, 1, f)` and `scope_map(items, 32, f)` return
//! identical vectors whenever `f` is a pure function of `(index, item)`.
//! Every parallel path in the workspace (replications, ρ-grid points, whole
//! figures) is built on this property and is therefore byte-identical to
//! its sequential counterpart.

use crate::rng::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The default number of worker threads:
/// [`std::thread::available_parallelism`] (1 when unknown).
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on up to `jobs` scoped threads, returning results
/// in input order.
///
/// `f(i, &items[i])` must be a pure function of its arguments for the
/// output to be independent of `jobs`; all callers in this workspace ensure
/// that by deriving an independent RNG stream per index. Work is distributed
/// dynamically (an atomic next-index counter), so uneven item costs balance
/// across workers. `jobs <= 1` (or a single item) short-circuits to a plain
/// sequential loop with no thread machinery at all.
///
/// # Panics
///
/// Propagates the first panic of any worker.
pub fn scope_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("scope_map worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// [`scope_map`] over the index range `0..n` (no item slice needed).
pub fn scope_map_indexed<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    scope_map(&indices, jobs, |_, &i| f(i))
}

/// Capped exponential backoff with deterministic jitter: the networked
/// broker client's reconnect and shed-retry discipline (how many times to
/// retry and how long to wait before each retry).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail on the first failure).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`RetryPolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the (exponentially growing) backoff interval.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter stream, so a rerun with
    /// the same seed replays the same backoff schedule.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): `base · 2^(retry-1)`
    /// capped at [`RetryPolicy::backoff_cap`], scaled by a deterministic
    /// jitter factor in `[0.5, 1.0]` drawn from the policy's jitter stream.
    /// Pure in `(self, retry)`, so replays reproduce the schedule exactly.
    #[must_use]
    pub fn delay_before(&self, retry: u32) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(retry - 1).unwrap_or(u32::MAX))
            .min(self.backoff_cap);
        let jitter = 0.5
            + 0.5
                * SimRng::new(self.jitter_seed)
                    .derive(u64::from(retry))
                    .uniform();
        exp.mul_f64(jitter)
    }
}

/// Renders a panic payload as text, the way the default panic hook would.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = scope_map(&items, 8, |i, &x| x * 2 + i as u64);
        let expect: Vec<u64> = (0..100).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |i: usize, x: &u64| {
            // A mildly expensive pure function.
            let mut acc = *x ^ i as u64;
            for _ in 0..100 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(scope_map(&items, 1, f), scope_map(&items, 7, f));
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(scope_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(scope_map(&[41u32], 4, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn indexed_variant_matches() {
        let out = scope_map_indexed(10, 3, |i| i * i);
        let expect: Vec<usize> = (0..10).map(|i| i * i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(scope_map(&[1, 2, 3], 64, |_, &x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = RetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            jitter_seed: 7,
        };
        let d1 = p.delay_before(1);
        let d2 = p.delay_before(2);
        assert_eq!(d1, p.delay_before(1), "same (policy, retry) same delay");
        assert!(d1 >= Duration::from_micros(500), "jitter floor is 0.5x");
        assert!(p.delay_before(30) <= Duration::from_millis(4), "capped");
        assert!(d2 <= Duration::from_millis(4));
    }

    #[test]
    fn panic_message_handles_str_string_and_opaque() {
        let s = catch_unwind(|| panic!("literal")).unwrap_err();
        assert_eq!(panic_message(s.as_ref()), "literal");
        let s = catch_unwind(|| panic!("{}", 42)).unwrap_err();
        assert_eq!(panic_message(s.as_ref()), "42");
        let s = catch_unwind(|| std::panic::panic_any(17u8)).unwrap_err();
        assert_eq!(panic_message(s.as_ref()), "<opaque panic payload>");
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            scope_map(&[1u32, 2, 3, 4], 2, |_, &x| {
                assert!(x != 3, "boom");
                x
            })
        });
        assert!(r.is_err());
    }
}
