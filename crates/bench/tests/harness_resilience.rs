//! End-to-end tests of the resilient suite harness: panic isolation and
//! crash-safe `--resume` semantics.
//!
//! Every test drives [`rsin_bench::harness::run_resilient`] directly with
//! an explicit output directory and an explicit [`ChaosPlan`] — no
//! environment variables — so the tests can run concurrently.

use rsin_bench::harness::{ChaosPlan, HarnessConfig, TaskOutcome};
use rsin_bench::manifest::{EntryStatus, Manifest};
use rsin_bench::RunQuality;
use std::path::{Path, PathBuf};

/// A preset small enough that the whole 17-task suite runs in seconds.
fn tiny(jobs: usize) -> RunQuality {
    RunQuality {
        warmup: 20,
        measured: 120,
        reps: 2,
        trials: 200,
        jobs,
        ..RunQuality::quick()
    }
}

/// A fresh, empty output directory unique to this test.
fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsin_harness_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn config_in(dir: &Path, jobs: usize) -> HarnessConfig {
    let mut cfg = HarnessConfig::new(tiny(jobs));
    cfg.out_dir = dir.to_path_buf();
    cfg
}

/// Reads every suite artifact (`*.txt`, `*.csv`) in a directory as
/// `(file name, bytes)`, sorted by name. `manifest.json` is excluded —
/// its duration fields legitimately vary run to run.
fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read test dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".txt") || name.ends_with(".csv")
        })
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read artifact");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn chaos_panic_isolates_one_task_and_the_rest_complete() {
    let dir = test_dir("panic_isolation");
    let mut cfg = config_in(&dir, 3);
    cfg.chaos = ChaosPlan::none().with_panic("fig07");

    let report = rsin_bench::harness::run_resilient(&cfg);

    assert_eq!(report.tasks.len(), 17);
    for t in &report.tasks {
        if t.name == "fig07" {
            assert!(
                matches!(t.outcome, TaskOutcome::Failed(_)),
                "fig07 must fail terminally"
            );
        } else {
            assert!(
                matches!(t.outcome, TaskOutcome::Computed(_)),
                "{} must survive fig07's panics",
                t.name
            );
            assert!(t.persist_error.is_none(), "{} must persist", t.name);
            assert!(
                dir.join(format!("{}.txt", t.name)).exists(),
                "{}.txt must be on disk",
                t.name
            );
        }
    }
    let failures = report.failure_lines();
    assert_eq!(failures.len(), 1);
    assert!(
        failures[0].contains("fig07"),
        "report names the task: {failures:?}"
    );
    assert!(
        !dir.join("fig07.txt").exists(),
        "failed task leaves no artifact"
    );

    // The checkpointed manifest records the failure in a machine-readable
    // form, with digests for everything that succeeded.
    let manifest = Manifest::load(&dir.join("manifest.json")).expect("manifest written");
    assert_eq!(manifest.entries.len(), 17);
    let failed = manifest.entry("fig07").expect("fig07 entry");
    assert_eq!(failed.status, EntryStatus::Failed);
    assert!(failed.digest.is_none());
    assert!(
        failed.error.as_deref().unwrap_or("").contains("panicked"),
        "entry carries the failure: {:?}",
        failed.error
    );
    let ok = manifest.entry("fig04").expect("fig04 entry");
    assert_eq!(ok.status, EntryStatus::Ok);
    assert!(ok.digest.is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_partial_run_matches_a_cold_run_byte_for_byte() {
    // Reference: an uninterrupted sequential run.
    let cold_dir = test_dir("resume_cold");
    let cold = rsin_bench::harness::run_resilient(&config_in(&cold_dir, 1));
    assert!(cold.failure_lines().is_empty(), "cold run is clean");

    // "Interrupted" run: two tasks are knocked out by chaos, so the first
    // pass checkpoints a partial suite...
    let dir = test_dir("resume_partial");
    let mut cfg = config_in(&dir, 3);
    cfg.chaos = ChaosPlan::none().with_panic("fig04").with_panic("table2");
    let partial = rsin_bench::harness::run_resilient(&cfg);
    assert_eq!(partial.failure_lines().len(), 2);

    // ...and a `--resume` pass (chaos gone) recomputes exactly the missing
    // two, skipping the 15 digest-valid artifacts.
    let mut cfg = config_in(&dir, 3);
    cfg.resume = true;
    let resumed = rsin_bench::harness::run_resilient(&cfg);
    assert!(
        resumed.failure_lines().is_empty(),
        "resume completes the suite"
    );
    assert_eq!(resumed.resumed(), 15);
    for t in &resumed.tasks {
        match t.name {
            "fig04" | "table2" => assert!(
                matches!(t.outcome, TaskOutcome::Computed(_)),
                "{} must be recomputed",
                t.name
            ),
            _ => assert!(
                matches!(t.outcome, TaskOutcome::Resumed { .. }),
                "{} must be skipped",
                t.name
            ),
        }
    }

    // The interrupted-then-resumed directory is byte-identical to the cold
    // one — different worker counts included.
    let cold_files = artifact_bytes(&cold_dir);
    let resumed_files = artifact_bytes(&dir);
    assert_eq!(
        cold_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        resumed_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same artifact set"
    );
    for ((name, a), (_, b)) in cold_files.iter().zip(&resumed_files) {
        assert_eq!(a, b, "artifact {name} differs from the cold run");
    }

    // Manifest digests (the result-bearing fields) agree as well.
    let cold_manifest = Manifest::load(&cold_dir.join("manifest.json")).expect("cold manifest");
    let manifest = Manifest::load(&dir.join("manifest.json")).expect("resumed manifest");
    for e in &cold_manifest.entries {
        let r = manifest.entry(&e.name).expect("entry present after resume");
        assert_eq!(e.digest, r.digest, "digest for {}", e.name);
        assert_eq!(e.csv_digest, r.csv_digest, "csv digest for {}", e.name);
        assert_eq!(r.status, EntryStatus::Ok);
    }

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_recomputes_tampered_artifacts() {
    let dir = test_dir("resume_tamper");
    let first = rsin_bench::harness::run_resilient(&config_in(&dir, 2));
    assert!(first.failure_lines().is_empty());
    let path = dir.join("fig11.txt");
    let original = std::fs::read(&path).expect("fig11 artifact");
    std::fs::write(&path, b"tampered\n").expect("tamper");

    let mut cfg = config_in(&dir, 2);
    cfg.resume = true;
    let resumed = rsin_bench::harness::run_resilient(&cfg);
    assert_eq!(resumed.resumed(), 16, "only the tampered task recomputes");
    let fig11 = resumed
        .tasks
        .iter()
        .find(|t| t.name == "fig11")
        .expect("fig11 report");
    assert!(matches!(fig11.outcome, TaskOutcome::Computed(_)));
    assert_eq!(
        std::fs::read(&path).expect("fig11 artifact"),
        original,
        "recomputation restores the digest-valid bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_ignores_a_manifest_from_a_different_quality_preset() {
    let dir = test_dir("resume_quality");
    let first = rsin_bench::harness::run_resilient(&config_in(&dir, 2));
    assert!(first.failure_lines().is_empty());

    let mut other = tiny(2);
    other.seed += 1;
    let mut cfg = HarnessConfig::new(other);
    cfg.out_dir = dir.clone();
    cfg.resume = true;
    let resumed = rsin_bench::harness::run_resilient(&cfg);
    assert_eq!(
        resumed.resumed(),
        0,
        "a different seed invalidates every checkpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
