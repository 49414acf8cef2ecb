//! The resilient suite runner: panic isolation and crash-safe resumable
//! checkpoints.
//!
//! [`crate::suite::run_suite`] computes the figure/table suite fast but
//! fragile: one panicking task kills the whole run, and a killed run
//! starts over from scratch. This module wraps the same task list so that
//! neither happens:
//!
//! * **panic isolation** — every task runs once, under `catch_unwind`; a
//!   failing figure becomes a structured entry in the suite report while
//!   the rest of the suite completes and is emitted as a clearly marked
//!   degraded partial suite. A task is a pure function of the quality
//!   preset, so running it again would fail the same way; the failure
//!   report says to rerun with `--resume` instead;
//! * **crash-safe checkpoints** — artifacts are persisted atomically the
//!   moment their task finishes, and `manifest.json` (see
//!   [`crate::manifest`]) is atomically rewritten after every task, so
//!   `all --resume` skips digest-valid artifacts and recomputes the rest,
//!   producing byte-identical final artifacts for any worker count;
//! * **chaos self-test hooks** — `RSIN_CHAOS=panic:<task>,io` injects
//!   failures into the harness itself so tests and CI can prove the
//!   machinery above actually works.

use crate::manifest::{Manifest, ManifestEntry};
use crate::output;
use crate::quality::RunQuality;
use crate::suite::{task_specs, SuiteOutput, TaskSpec};
use rsin_core::{ConfigError, HarnessError};
use rsin_des::{panic_message, scope_map};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable carrying the chaos spec (see [`ChaosPlan::parse`]).
pub const CHAOS_ENV: &str = "RSIN_CHAOS";

/// Failure injection into the harness itself — the self-test mode that
/// lets CI prove the isolation/resume machinery works.
///
/// A plan is parsed from a comma-separated spec (normally the `RSIN_CHAOS`
/// environment variable):
///
/// * `panic:<task>` — `<task>` panics instead of computing (exercises
///   isolation and the degraded partial suite);
/// * `io` — every artifact write fails (exercises persist error paths and
///   nonzero exit codes).
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    panic_tasks: HashSet<String>,
    fail_io: bool,
}

impl ChaosPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Parses a chaos spec like `panic:fig07,io`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] on an unknown directive.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut plan = ChaosPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(task) = part.strip_prefix("panic:") {
                plan.panic_tasks.insert(task.to_string());
            } else if part == "io" {
                plan.fail_io = true;
            } else {
                return Err(ConfigError::Parse {
                    input: part.to_string(),
                    expected: "panic:<task> or io",
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

    /// Builder: `task` panics.
    #[must_use]
    pub fn with_panic(mut self, task: &str) -> Self {
        self.panic_tasks.insert(task.to_string());
        self
    }

    fn should_panic(&self, task: &str) -> bool {
        self.panic_tasks.contains(task)
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
    /// Failure injection (inert by default).
    pub chaos: ChaosPlan,
}

impl HarnessConfig {
    /// A cold run at `quality` into the default output directory with no
    /// failure injection. No environment is consulted — see
    /// [`HarnessConfig::from_env`] for the binary entry point.
    #[must_use]
    pub fn new(quality: RunQuality) -> Self {
        HarnessConfig {
            quality,
            resume: false,
            out_dir: output::output_dir(),
            chaos: ChaosPlan::none(),
        }
    }

    /// [`HarnessConfig::new`] plus the `RSIN_CHAOS` environment knob.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] when `RSIN_CHAOS` is set but malformed.
    pub fn from_env(quality: RunQuality) -> Result<Self, ConfigError> {
        Ok(HarnessConfig {
            chaos: ChaosPlan::from_env()?,
            ..HarnessConfig::new(quality)
        })
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
    /// The task panicked.
    Failed(HarnessError),
}

/// One task's run record.
#[derive(Debug)]
pub struct TaskReport {
    /// The artifact name.
    pub name: &'static str,
    /// How the task ended.
    pub outcome: TaskOutcome,
    /// Set when the task computed but its artifacts could not be written.
    pub persist_error: Option<HarnessError>,
}

impl TaskReport {
    /// True when the task or its artifacts failed.
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
    /// Human-readable lines describing every failure (empty on a
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

/// Runs the whole suite resiliently: resume-skip, panic-isolated parallel
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

    let tasks = scope_map(&specs, config.quality.jobs(), |i, spec| {
        if let Some((text, _)) = &resumed[i] {
            return TaskReport {
                name: spec.name,
                outcome: TaskOutcome::Resumed { text: text.clone() },
                persist_error: None,
            };
        }
        let (report, entry) = supervise_task(*spec, config);
        checkpoint(config, &entries, i, entry);
        report
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
/// failures.
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

/// Runs one task once under `catch_unwind`, persists its artifacts, and
/// returns its run record with the manifest entry to checkpoint.
fn supervise_task(spec: TaskSpec, config: &HarnessConfig) -> (TaskReport, ManifestEntry) {
    let name = spec.name;
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if config.chaos.should_panic(name) {
            panic!("chaos: injected panic in {name} (RSIN_CHAOS=panic:{name})");
        }
        (spec.run)(&config.quality)
    }));
    let elapsed = start.elapsed();

    match result {
        Ok(out) => {
            let text = out.rendered();
            let csv = out.csv();
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
                    ManifestEntry::failed(name, e.to_string(), elapsed)
                }
                None => ManifestEntry::ok(name, &text, csv.as_deref(), elapsed),
            };
            let report = TaskReport {
                name,
                outcome: TaskOutcome::Computed(out),
                persist_error,
            };
            (report, entry)
        }
        Err(payload) => {
            let error = HarnessError::TaskPanicked {
                task: name.to_string(),
                message: panic_message(payload.as_ref()),
            };
            eprintln!("error: {error}; continuing with the rest of the suite");
            let entry = ManifestEntry::failed(name, error.to_string(), elapsed);
            let report = TaskReport {
                name,
                outcome: TaskOutcome::Failed(error),
                persist_error: None,
            };
            (report, entry)
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let plan = ChaosPlan::parse("panic:fig07, io").expect("valid spec");
        assert!(plan.should_panic("fig07"));
        assert!(!plan.should_panic("fig04"));
        assert!(plan.io_fails());
        for inert in [
            ChaosPlan::none(),
            ChaosPlan::parse("").expect("empty is inert"),
        ] {
            assert!(!inert.should_panic("fig07") && !inert.io_fails());
        }
        for bad in ["explode:fig07", "stall:fig11"] {
            let err = ChaosPlan::parse(bad).expect_err("unknown directive");
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    static PANICKING_RUNS: AtomicUsize = AtomicUsize::new(0);

    fn counted_panic(_: &RunQuality) -> SuiteOutput {
        PANICKING_RUNS.fetch_add(1, Ordering::SeqCst);
        panic!("deterministic failure");
    }

    #[test]
    fn a_panicking_task_runs_exactly_once() {
        let spec = TaskSpec {
            name: "counted_panic",
            run: counted_panic,
        };
        let mut config = HarnessConfig::new(RunQuality::quick());
        config.out_dir = std::env::temp_dir().join(format!("rsin_once_{}", std::process::id()));
        let (report, entry) = supervise_task(spec, &config);
        assert_eq!(PANICKING_RUNS.load(Ordering::SeqCst), 1, "no retry");
        match &report.outcome {
            TaskOutcome::Failed(e) => assert!(e.to_string().contains("deterministic failure")),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(entry.status, crate::manifest::EntryStatus::Failed);
        assert!(!config.out_dir.exists(), "a failed task writes nothing");
    }
}
