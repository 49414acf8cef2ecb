//! Runs every figure/table regenerator under the resilient harness:
//! artifacts are computed on `--jobs` workers (default: all cores), each
//! task once with panic isolation, then emitted in the fixed suite order —
//! so stdout and the artifact files are byte-identical for every worker
//! count.
//!
//! Each artifact is persisted atomically the moment its task finishes and
//! `manifest.json` is checkpointed after every task, so a killed run can
//! be restarted with `--resume` to recompute only what is missing or
//! stale (the final artifacts are byte-identical to an uninterrupted
//! run). `RSIN_CHAOS=panic:<task>,io` injects failures into the harness
//! for self-testing; any failure makes the process exit nonzero with a
//! one-line summary of what failed.
use rsin_bench::harness::{self, HarnessConfig};

fn main() {
    let q = rsin_bench::RunQuality::from_args();
    let mut cfg = match HarnessConfig::from_env(q) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    cfg.resume = std::env::args().any(|a| a == "--resume");
    let report = harness::run_resilient(&cfg);
    let failures = harness::emit_stdout(&report);
    if report.resumed() > 0 {
        eprintln!(
            "resumed {} task(s) from {}",
            report.resumed(),
            report.out_dir.join("manifest.json").display()
        );
    }
    if failures > 0 {
        let names: Vec<&str> = report
            .tasks
            .iter()
            .filter(|t| t.is_failure())
            .map(|t| t.name)
            .collect();
        eprintln!(
            "all: FAILED — {failures} failure(s) in task(s)/artifact(s): {}",
            names.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!("all outputs written to {}", report.out_dir.display());
}
