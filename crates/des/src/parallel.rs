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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "RSIN_JOBS";

/// The default number of worker threads: the `RSIN_JOBS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when unknown).
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
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

/// Why one supervised attempt did not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunFailure {
    /// The attempt panicked; the payload is rendered as text.
    Panicked {
        /// The panic payload, stringified (`"<opaque panic payload>"` when
        /// the payload is neither `&str` nor `String`).
        message: String,
    },
    /// The attempt ran past its hard deadline and was abandoned.
    TimedOut {
        /// The deadline the attempt exceeded.
        deadline: Duration,
    },
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFailure::Panicked { message } => write!(f, "panicked: {message}"),
            RunFailure::TimedOut { deadline } => {
                write!(f, "timed out after {:.1}s", deadline.as_secs_f64())
            }
        }
    }
}

/// Retry discipline for [`run_supervised`]: how many times to re-run a
/// failing unit of work, how long to back off between attempts, and the
/// hard deadline after which a running attempt is abandoned.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Re-runs after the first attempt (0 = fail on the first failure).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry up to
    /// [`RetryPolicy::backoff_cap`].
    pub backoff_base: Duration,
    /// Upper bound on the (exponentially growing) backoff interval.
    pub backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter stream. Derive it from a
    /// stable identity (e.g. a hash of the task name) so reruns replay the
    /// same backoff schedule.
    pub jitter_seed: u64,
    /// Hard per-attempt deadline. `Some(d)` runs each attempt on its own
    /// thread and abandons it (the thread is left to finish in the
    /// background) once `d` elapses; `None` runs attempts inline on the
    /// calling thread and never times out.
    pub hard_deadline: Option<Duration>,
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based): `base · 2^(retry-1)`
    /// capped at [`RetryPolicy::backoff_cap`], scaled by a deterministic
    /// jitter factor in `[0.5, 1.0]` drawn from the policy's jitter stream.
    /// Pure in `(self, retry)`, so replays reproduce the schedule exactly.
    ///
    /// Public so other retry loops (the networked broker client's
    /// reconnect/shed-retry path) reuse the same capped-jittered discipline
    /// instead of growing a second one.
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

/// The outcome of a [`run_supervised`] call.
#[derive(Debug)]
pub struct Supervised<R> {
    /// The computed value, or the failure of the final attempt.
    pub result: Result<R, RunFailure>,
    /// Failures of the attempts before the final one (empty when the first
    /// attempt succeeded).
    pub earlier_failures: Vec<RunFailure>,
    /// Attempts made (1 when the first attempt succeeded).
    pub attempts: u32,
    /// Wall-clock time across all attempts, including backoff sleeps.
    pub duration: Duration,
}

impl<R> Supervised<R> {
    /// All failures in attempt order, including the terminal one when the
    /// work never succeeded.
    pub fn failures(&self) -> impl Iterator<Item = &RunFailure> {
        self.earlier_failures
            .iter()
            .chain(self.result.as_ref().err())
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

/// The backoff before retry number `retry` (1-based). See
/// [`RetryPolicy::delay_before`].
#[must_use]
fn backoff_delay(policy: &RetryPolicy, retry: u32) -> Duration {
    policy.delay_before(retry)
}

/// Runs `f` under supervision: panics are caught per attempt, attempts that
/// outlive the policy's hard deadline are abandoned, and failed attempts are
/// retried with capped exponential backoff (deterministic jitter from the
/// policy's seed).
///
/// With a hard deadline, each attempt runs on its own (non-scoped) thread
/// and its result is collected over a channel; an abandoned attempt keeps
/// running in the background until it finishes on its own — acceptable for
/// the pure compute tasks this workspace supervises, whose results are
/// simply discarded. Without a deadline, attempts run inline on the calling
/// thread.
///
/// `f` must be `Clone` because every attempt consumes one instance.
pub fn run_supervised<R, F>(f: F, policy: &RetryPolicy) -> Supervised<R>
where
    R: Send + 'static,
    F: Fn() -> R + Clone + Send + 'static,
{
    let start = Instant::now();
    let mut failures: Vec<RunFailure> = Vec::new();
    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            std::thread::sleep(backoff_delay(policy, attempt));
        }
        let outcome = match policy.hard_deadline {
            None => catch_unwind(AssertUnwindSafe(f.clone())).map_err(|p| RunFailure::Panicked {
                message: panic_message(p.as_ref()),
            }),
            Some(deadline) => {
                let (tx, rx) = mpsc::channel();
                let g = f.clone();
                std::thread::spawn(move || {
                    let r = catch_unwind(AssertUnwindSafe(g));
                    let _ = tx.send(r);
                });
                match rx.recv_timeout(deadline) {
                    Ok(Ok(r)) => Ok(r),
                    Ok(Err(p)) => Err(RunFailure::Panicked {
                        message: panic_message(p.as_ref()),
                    }),
                    Err(_) => Err(RunFailure::TimedOut { deadline }),
                }
            }
        };
        match outcome {
            Ok(r) => {
                return Supervised {
                    result: Ok(r),
                    earlier_failures: failures,
                    attempts: attempt + 1,
                    duration: start.elapsed(),
                }
            }
            Err(fail) => failures.push(fail),
        }
    }
    let last = failures.pop().expect("at least one attempt ran");
    Supervised {
        result: Err(last),
        earlier_failures: failures,
        attempts: policy.max_retries + 1,
        duration: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn test_policy(retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries: retries,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            jitter_seed: 7,
            hard_deadline: None,
        }
    }

    #[test]
    fn supervised_success_first_try() {
        let s = run_supervised(|| 41 + 1, &test_policy(2));
        assert_eq!(s.result, Ok(42));
        assert_eq!(s.attempts, 1);
        assert!(s.earlier_failures.is_empty());
    }

    #[test]
    fn supervised_panic_then_success_is_retried() {
        let tries = std::sync::Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let s = run_supervised(
            move || {
                assert!(t.fetch_add(1, Ordering::SeqCst) > 0, "first attempt dies");
                "ok"
            },
            &test_policy(2),
        );
        assert_eq!(s.result, Ok("ok"));
        assert_eq!(s.attempts, 2);
        assert_eq!(s.earlier_failures.len(), 1);
        assert!(matches!(
            &s.earlier_failures[0],
            RunFailure::Panicked { message } if message.contains("first attempt dies")
        ));
    }

    #[test]
    fn supervised_exhausts_retries_on_persistent_panic() {
        let s: Supervised<()> = run_supervised(|| panic!("always"), &test_policy(2));
        assert_eq!(s.attempts, 3);
        assert_eq!(s.failures().count(), 3);
        assert!(matches!(
            s.result,
            Err(RunFailure::Panicked { ref message }) if message == "always"
        ));
    }

    #[test]
    fn supervised_stall_is_abandoned_and_retried() {
        let tries = std::sync::Arc::new(AtomicUsize::new(0));
        let t = tries.clone();
        let policy = RetryPolicy {
            hard_deadline: Some(Duration::from_millis(40)),
            ..test_policy(1)
        };
        let s = run_supervised(
            move || {
                if t.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                7u32
            },
            &policy,
        );
        assert_eq!(s.result, Ok(7));
        assert_eq!(s.attempts, 2);
        assert!(matches!(
            s.earlier_failures[0],
            RunFailure::TimedOut { deadline } if deadline == Duration::from_millis(40)
        ));
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = test_policy(8);
        let d1 = backoff_delay(&p, 1);
        let d2 = backoff_delay(&p, 2);
        assert_eq!(d1, backoff_delay(&p, 1), "same (policy, retry) same delay");
        assert!(d1 >= Duration::from_micros(500), "jitter floor is 0.5x");
        assert!(backoff_delay(&p, 30) <= Duration::from_millis(4), "capped");
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
