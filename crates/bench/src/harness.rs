//! The resilient suite runner: panic isolation, watchdog deadlines,
//! deterministic retries, and crash-safe resumable checkpoints.
//!
//! [`crate::suite::run_suite`] computes the figure/table suite fast but
//! fragile: one panicking or hung task kills the whole run, and a killed
//! run starts over from scratch. This module wraps the same task list in
//! the discipline a production job runner applies to its workers:
//!
//! * **panic isolation** — every task attempt runs under `catch_unwind`
//!   (via [`rsin_des::run_supervised`]); a failing figure becomes a
//!   structured entry in the suite report while the rest of the suite
//!   completes and is emitted as a clearly marked degraded partial suite;
//! * **watchdog deadlines** — a monitor thread flags tasks running past a
//!   soft deadline derived from the [`RunQuality`] preset; attempts that
//!   outlive the hard deadline are abandoned and retried;
//! * **bounded deterministic retries** — panicking/stalled attempts are
//!   retried with capped exponential backoff whose jitter stream is seeded
//!   from the task *name*, so reruns replay the same schedule;
//! * **crash-safe checkpoints** — artifacts are persisted atomically the
//!   moment their task finishes, and `manifest.json` (see
//!   [`crate::manifest`]) is atomically rewritten after every task, so
//!   `all --resume` skips digest-valid artifacts and recomputes the rest,
//!   producing byte-identical final artifacts for any worker count;
//! * **chaos self-test hooks** — `RSIN_CHAOS=panic:<task>,stall:<task>,io`
//!   injects failures into the harness itself so tests and CI can prove
//!   the machinery above actually works.

use crate::manifest::{fnv1a64, Manifest, ManifestEntry};
use crate::output;
use crate::quality::RunQuality;
use crate::suite::{task_specs, SuiteOutput, TaskSpec};
use rsin_core::{ConfigError, HarnessError};
use rsin_des::{run_supervised, scope_map, RetryPolicy, RunFailure};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable carrying the chaos spec (see [`ChaosPlan::parse`]).
pub const CHAOS_ENV: &str = "RSIN_CHAOS";

/// Environment variable overriding the soft deadline, in milliseconds; the
/// hard deadline stays [`HARD_DEADLINE_FACTOR`]× the soft one.
pub const DEADLINE_ENV: &str = "RSIN_TASK_DEADLINE_MS";

/// Hard deadline = soft deadline × this factor.
pub const HARD_DEADLINE_FACTOR: u32 = 4;

/// Failure injection into the harness itself — the self-test mode that
/// lets CI prove the isolation/retry/resume machinery works.
///
/// A plan is parsed from a comma-separated spec (normally the `RSIN_CHAOS`
/// environment variable):
///
/// * `panic:<task>` — every compute attempt of `<task>` panics (terminal
///   failure: exercises isolation, retry exhaustion, and the degraded
///   partial suite);
/// * `stall:<task>` — the *first* attempt of `<task>` sleeps past the hard
///   deadline (exercises watchdog abandonment and a successful retry);
/// * `io` — every artifact write fails (exercises persist error paths and
///   nonzero exit codes).
#[derive(Debug, Default)]
pub struct ChaosPlan {
    panic_tasks: HashSet<String>,
    stall_tasks: Mutex<HashSet<String>>,
    fail_io: bool,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Parses a chaos spec like `panic:fig07,stall:fig11,io`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] on an unknown directive.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut plan = ChaosPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(task) = part.strip_prefix("panic:") {
                plan.panic_tasks.insert(task.to_string());
            } else if let Some(task) = part.strip_prefix("stall:") {
                plan.stall_tasks
                    .lock()
                    .expect("chaos lock")
                    .insert(task.to_string());
            } else if part == "io" {
                plan.fail_io = true;
            } else {
                return Err(ConfigError::Parse {
                    input: part.to_string(),
                    expected: "panic:<task>, stall:<task>, or io",
                });
            }
        }
        Ok(plan)
    }

    /// The plan from `RSIN_CHAOS`, or an inert plan when unset/empty.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] when the variable is set but malformed.
    pub fn from_env() -> Result<Self, ConfigError> {
        match std::env::var(CHAOS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => ChaosPlan::parse(&spec),
            _ => Ok(ChaosPlan::none()),
        }
    }

    /// Builder: every attempt of `task` panics.
    #[must_use]
    pub fn with_panic(mut self, task: &str) -> Self {
        self.panic_tasks.insert(task.to_string());
        self
    }

    /// Builder: the first attempt of `task` stalls past the hard deadline.
    #[must_use]
    pub fn with_stall(self, task: &str) -> Self {
        self.stall_tasks
            .lock()
            .expect("chaos lock")
            .insert(task.to_string());
        self
    }

    /// Builder: every artifact write fails.
    #[must_use]
    pub fn with_io_failures(mut self) -> Self {
        self.fail_io = true;
        self
    }

    /// True when the plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.fail_io
            || !self.panic_tasks.is_empty()
            || !self.stall_tasks.lock().expect("chaos lock").is_empty()
    }

    fn should_panic(&self, task: &str) -> bool {
        self.panic_tasks.contains(task)
    }

    /// Take-once: true on the first call per stalled task, so the retry
    /// after the abandoned attempt can demonstrate recovery.
    fn take_stall(&self, task: &str) -> bool {
        self.stall_tasks.lock().expect("chaos lock").remove(task)
    }

    fn io_fails(&self) -> bool {
        self.fail_io
    }
}

/// Configuration of one resilient suite run.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// The quality preset the tasks are computed at.
    pub quality: RunQuality,
    /// Skip tasks whose manifest digests still match the artifacts on disk.
    pub resume: bool,
    /// Where artifacts and `manifest.json` go.
    pub out_dir: PathBuf,
    /// Tasks running longer than this are flagged by the watchdog (the run
    /// continues).
    pub soft_deadline: Duration,
    /// Attempts running longer than this are abandoned and retried.
    pub hard_deadline: Duration,
    /// Retries after the first attempt of each task.
    pub max_retries: u32,
    /// Backoff before the first retry (doubles per retry, capped).
    pub backoff_base: Duration,
    /// Backoff cap.
    pub backoff_cap: Duration,
    /// Failure injection (inert by default).
    pub chaos: Arc<ChaosPlan>,
}

impl HarnessConfig {
    /// Deadlines and retry budget for a quality preset: the soft deadline
    /// scales with the measured-allocation count (60 s for the quick
    /// preset, 300 s for `--full`, clamped to `[30 s, 3600 s]`), the hard
    /// deadline is [`HARD_DEADLINE_FACTOR`]× that. No environment is
    /// consulted — see [`HarnessConfig::from_env`] for the binary entry
    /// point.
    #[must_use]
    pub fn new(quality: RunQuality) -> Self {
        #[allow(clippy::cast_precision_loss)]
        let soft_secs = (quality.measured as f64 / 8_000.0 * 60.0).clamp(30.0, 3_600.0);
        let soft = Duration::from_secs_f64(soft_secs);
        HarnessConfig {
            quality,
            resume: false,
            out_dir: output::output_dir(),
            soft_deadline: soft,
            hard_deadline: soft * HARD_DEADLINE_FACTOR,
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            chaos: Arc::new(ChaosPlan::none()),
        }
    }

    /// [`HarnessConfig::new`] plus the environment knobs: `RSIN_CHAOS` and
    /// `RSIN_TASK_DEADLINE_MS`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] when either variable is set but malformed.
    pub fn from_env(quality: RunQuality) -> Result<Self, ConfigError> {
        let mut cfg = HarnessConfig::new(quality);
        cfg.chaos = Arc::new(ChaosPlan::from_env()?);
        if let Ok(ms) = std::env::var(DEADLINE_ENV) {
            let ms: u64 = ms.trim().parse().map_err(|_| ConfigError::Parse {
                input: format!("{DEADLINE_ENV}={ms}"),
                expected: "a soft deadline in milliseconds, e.g. 60000",
            })?;
            cfg.soft_deadline = Duration::from_millis(ms.max(1));
            cfg.hard_deadline = cfg.soft_deadline * HARD_DEADLINE_FACTOR;
        }
        Ok(cfg)
    }
}

/// How one task ended.
#[derive(Debug)]
pub enum TaskOutcome {
    /// Computed this run; the artifact is carried for ordered emission.
    Computed(SuiteOutput),
    /// Skipped under `--resume`: the digest-valid artifact text from disk.
    Resumed {
        /// The `<name>.txt` bytes, reprinted so resumed stdout matches a
        /// cold run.
        text: String,
    },
    /// The task failed terminally (retries exhausted).
    Failed(HarnessError),
}

/// One task's run record.
#[derive(Debug)]
pub struct TaskReport {
    /// The artifact name.
    pub name: &'static str,
    /// How the task ended.
    pub outcome: TaskOutcome,
    /// Attempts made (resumed tasks report the original run's count).
    pub attempts: u32,
    /// Soft-deadline flag or an abandoned attempt.
    pub stalled: bool,
    /// Wall-clock compute time (resumed tasks report the original run's).
    pub duration_ms: u64,
    /// Set when the task computed but its artifacts could not be written.
    pub persist_error: Option<HarnessError>,
}

impl TaskReport {
    /// True when the task or its artifacts terminally failed.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        matches!(self.outcome, TaskOutcome::Failed(_)) || self.persist_error.is_some()
    }
}

/// The full suite's run record, in emission order.
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-task records in suite order.
    pub tasks: Vec<TaskReport>,
    /// Where artifacts and the manifest were written.
    pub out_dir: PathBuf,
}

impl SuiteReport {
    /// Human-readable lines describing every terminal failure (empty on a
    /// clean run).
    #[must_use]
    pub fn failure_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for t in &self.tasks {
            if let TaskOutcome::Failed(e) = &t.outcome {
                lines.push(e.to_string());
            }
            if let Some(e) = &t.persist_error {
                lines.push(format!("artifact {}: {e}", t.name));
            }
        }
        lines
    }

    /// Tasks skipped via `--resume`.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.tasks
            .iter()
            .filter(|t| matches!(t.outcome, TaskOutcome::Resumed { .. }))
            .count()
    }
}

/// Runs the whole suite resiliently: resume-skip, supervised parallel
/// compute, immediate atomic persistence, and per-task manifest
/// checkpoints. Nothing is printed to stdout — call [`emit_stdout`] with
/// the returned report to emit artifacts in suite order.
#[must_use]
pub fn run_resilient(config: &HarnessConfig) -> SuiteReport {
    let specs = task_specs();
    let prior = Manifest::open(
        &config.out_dir.join("manifest.json"),
        &config.quality.fingerprint(),
        config.resume,
    );
    let resumed: Vec<Option<(String, ManifestEntry)>> = specs
        .iter()
        .map(|spec| {
            prior
                .reusable(&config.out_dir, spec.name, spec.name)
                .map(|(text, entry)| (text, entry.clone()))
        })
        .collect();

    // Manifest entries by task index; resumed entries carry over verbatim.
    let entries: Mutex<Vec<Option<ManifestEntry>>> = Mutex::new(
        resumed
            .iter()
            .map(|r| r.as_ref().map(|(_, e)| e.clone()))
            .collect(),
    );
    let started: Mutex<Vec<Option<Instant>>> = Mutex::new(vec![None; specs.len()]);
    let flagged: Vec<AtomicBool> = (0..specs.len()).map(|_| AtomicBool::new(false)).collect();
    let done = AtomicBool::new(false);

    let tasks = std::thread::scope(|scope| {
        let watchdog = scope.spawn(|| {
            watchdog_loop(&done, &started, &flagged, &specs, config.soft_deadline);
        });
        let tasks = scope_map(&specs, config.quality.jobs(), |i, spec| {
            if let Some((text, entry)) = &resumed[i] {
                return TaskReport {
                    name: spec.name,
                    outcome: TaskOutcome::Resumed { text: text.clone() },
                    attempts: entry.attempts,
                    stalled: entry.stalled,
                    duration_ms: entry.duration_ms,
                    persist_error: None,
                };
            }
            let (report, entry) = supervise_task(i, *spec, config, &started, &flagged);
            checkpoint(config, &entries, i, entry);
            report
        });
        done.store(true, Ordering::SeqCst);
        watchdog.join().expect("watchdog never panics");
        tasks
    });

    SuiteReport {
        tasks,
        out_dir: config.out_dir.clone(),
    }
}

/// Prints the suite to stdout in suite order — computed artifacts from
/// memory, resumed ones from their on-disk bytes, so the stream is
/// byte-identical to a cold sequential run — followed by a clearly marked
/// failure report when the suite is degraded. Returns the number of
/// terminal failures.
pub fn emit_stdout(report: &SuiteReport) -> usize {
    for t in &report.tasks {
        match &t.outcome {
            TaskOutcome::Computed(out) => print!("{}", out.rendered()),
            TaskOutcome::Resumed { text } => print!("{text}"),
            TaskOutcome::Failed(_) => {}
        }
    }
    let failures = report.failure_lines();
    if !failures.is_empty() {
        let failed_tasks = report.tasks.iter().filter(|t| t.is_failure()).count();
        println!();
        println!(
            "==== SUITE FAILURE REPORT: {failed_tasks}/{} task(s) failed ====",
            report.tasks.len()
        );
        for line in &failures {
            println!("  {line}");
        }
        println!("==== remaining artifacts above are complete; rerun with --resume to retry ====");
    }
    failures.len()
}

/// Runs one task under supervision, persists its artifacts, and returns
/// its run record with the manifest entry to checkpoint.
fn supervise_task(
    index: usize,
    spec: TaskSpec,
    config: &HarnessConfig,
    started: &Mutex<Vec<Option<Instant>>>,
    flagged: &[AtomicBool],
) -> (TaskReport, ManifestEntry) {
    let policy = RetryPolicy {
        max_retries: config.max_retries,
        backoff_base: config.backoff_base,
        backoff_cap: config.backoff_cap,
        jitter_seed: fnv1a64(spec.name.as_bytes()) ^ config.quality.seed,
        hard_deadline: Some(config.hard_deadline),
    };
    // A chaos stall must outlive the hard deadline to force abandonment;
    // the sleeping attempt thread then finishes (and is discarded) on its
    // own.
    let stall_sleep = config.hard_deadline * 3 + Duration::from_millis(250);
    let chaos = Arc::clone(&config.chaos);
    let quality = config.quality;
    let name = spec.name;
    let run = spec.run;

    started.lock().expect("start registry")[index] = Some(Instant::now());
    let sup = run_supervised(
        move || {
            if chaos.should_panic(name) {
                panic!("chaos: injected panic in {name} (RSIN_CHAOS=panic:{name})");
            }
            if chaos.take_stall(name) {
                std::thread::sleep(stall_sleep);
            }
            run(&quality)
        },
        &policy,
    );
    started.lock().expect("start registry")[index] = None;

    for (k, f) in sup.earlier_failures.iter().enumerate() {
        eprintln!("warning: task {name} attempt {} {f}; retrying", k + 1);
    }
    let stalled = flagged[index].load(Ordering::SeqCst)
        || sup
            .failures()
            .any(|f| matches!(f, RunFailure::TimedOut { .. }));
    #[allow(clippy::cast_possible_truncation)]
    let duration_ms = sup.duration.as_millis() as u64;

    let (report, mut entry) = match sup.result {
        Ok(out) => {
            let text = out.rendered();
            let csv = match &out {
                SuiteOutput::Figure(_, e) => Some(e.to_csv()),
                SuiteOutput::Text(..) => None,
            };
            let persist_error = if config.chaos.io_fails() {
                Some(HarnessError::Io {
                    op: "write",
                    path: config
                        .out_dir
                        .join(format!("{name}.txt"))
                        .display()
                        .to_string(),
                    message: "chaos: injected IO failure (RSIN_CHAOS=io)".to_string(),
                })
            } else {
                output::persist_in(&config.out_dir, name, &text, csv.as_deref()).err()
            };
            let entry = match &persist_error {
                Some(e) => {
                    eprintln!("warning: task {name} computed but {e}");
                    ManifestEntry::failed(name, e.to_string(), sup.duration)
                }
                None => ManifestEntry::ok(name, &text, csv.as_deref(), sup.duration),
            };
            let report = TaskReport {
                name,
                outcome: TaskOutcome::Computed(out),
                attempts: sup.attempts,
                stalled,
                duration_ms,
                persist_error,
            };
            (report, entry)
        }
        Err(failure) => {
            let error = match failure {
                RunFailure::Panicked { message } => HarnessError::TaskPanicked {
                    task: name.to_string(),
                    message,
                    attempts: sup.attempts,
                },
                RunFailure::TimedOut { deadline } => HarnessError::TaskStalled {
                    task: name.to_string(),
                    #[allow(clippy::cast_possible_truncation)]
                    deadline_ms: deadline.as_millis() as u64,
                    attempts: sup.attempts,
                },
            };
            eprintln!("error: {error}; continuing with the rest of the suite");
            let entry = ManifestEntry::failed(name, error.to_string(), sup.duration);
            let report = TaskReport {
                name,
                outcome: TaskOutcome::Failed(error),
                attempts: sup.attempts,
                stalled,
                duration_ms,
                persist_error: None,
            };
            (report, entry)
        }
    };
    entry.attempts = sup.attempts;
    entry.stalled = stalled;
    (report, entry)
}

/// Records one finished task and atomically rewrites `manifest.json` so a
/// kill at any instant leaves a manifest describing exactly the artifacts
/// on disk. A failed manifest write is reported but does not fail the task
/// — it only costs a future `--resume` some recomputation.
fn checkpoint(
    config: &HarnessConfig,
    entries: &Mutex<Vec<Option<ManifestEntry>>>,
    index: usize,
    entry: ManifestEntry,
) {
    let mut slots = entries.lock().expect("manifest entries");
    slots[index] = Some(entry);
    let manifest = Manifest {
        quality: config.quality.fingerprint(),
        entries: slots.iter().flatten().cloned().collect(),
    };
    // Serialize under the lock so checkpoint writes never interleave.
    if let Err(e) = manifest.save(&config.out_dir.join("manifest.json")) {
        eprintln!("warning: cannot checkpoint manifest: {e}");
    }
}

/// The watchdog: flags (once) every task that has been running longer than
/// the soft deadline. Purely observational — the hard-deadline abandonment
/// lives in the supervised runner.
fn watchdog_loop(
    done: &AtomicBool,
    started: &Mutex<Vec<Option<Instant>>>,
    flagged: &[AtomicBool],
    specs: &[TaskSpec],
    soft_deadline: Duration,
) {
    while !done.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        let snapshot = started.lock().expect("start registry").clone();
        for (i, s) in snapshot.iter().enumerate() {
            if let Some(t0) = s {
                let elapsed = t0.elapsed();
                if elapsed > soft_deadline && !flagged[i].swap(true, Ordering::SeqCst) {
                    eprintln!(
                        "warning: watchdog: task {} has been running {:.1}s, past its {:.1}s \
                         soft deadline",
                        specs[i].name,
                        elapsed.as_secs_f64(),
                        soft_deadline.as_secs_f64()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let plan = ChaosPlan::parse("panic:fig07, stall:fig11 ,io").expect("valid spec");
        assert!(plan.is_active());
        assert!(plan.should_panic("fig07"));
        assert!(!plan.should_panic("fig04"));
        assert!(plan.take_stall("fig11"), "first take fires");
        assert!(!plan.take_stall("fig11"), "stall is take-once");
        assert!(plan.io_fails());
        assert!(!ChaosPlan::none().is_active());
        assert!(!ChaosPlan::parse("").expect("empty is inert").is_active());
        let err = ChaosPlan::parse("explode:fig07").expect_err("unknown directive");
        assert!(err.to_string().contains("explode"));
    }

    #[test]
    fn config_deadlines_scale_with_preset() {
        let quick = HarnessConfig::new(RunQuality::quick());
        let full = HarnessConfig::new(RunQuality::full());
        assert_eq!(quick.soft_deadline, Duration::from_secs(60));
        assert_eq!(full.soft_deadline, Duration::from_secs(300));
        assert_eq!(
            quick.hard_deadline,
            quick.soft_deadline * HARD_DEADLINE_FACTOR
        );
        assert!(!quick.resume);
        assert!(!quick.chaos.is_active());
    }

    #[test]
    fn retry_jitter_seed_is_stable_per_task_name() {
        let a = fnv1a64(b"fig07");
        assert_eq!(a, fnv1a64(b"fig07"));
        assert_ne!(a, fnv1a64(b"fig08"));
    }
}
