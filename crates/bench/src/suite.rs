//! The complete figure/table suite as a task list.
//!
//! Each artifact is composed here and nowhere else. `bin/all` runs the
//! whole list under the resilient [`crate::harness`], `bin/perf_report`
//! times it through [`run_suite`], and each per-artifact binary (`fig04`,
//! `table2`, ...) is one [`run_task`] call that looks its task up by
//! artifact name. Tasks are pure functions of the quality preset, and
//! artifacts are emitted in the fixed task order, so stdout and the files
//! under `target/experiments/` are byte-identical for every worker count,
//! `--jobs 1` included, and between `all` and the per-artifact binaries.

use crate::figures;
use crate::output;
use crate::quality::RunQuality;
use crate::tables;
use rsin_core::experiment::Experiment;

/// One computed suite artifact, ready to emit.
#[derive(Debug)]
pub enum SuiteOutput {
    /// A figure experiment, persisted as text + CSV.
    Figure(&'static str, Experiment),
    /// Free-form text, persisted as text only.
    Text(&'static str, String),
}

impl SuiteOutput {
    /// The artifact's output name (`fig04`, `table2`, ...).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SuiteOutput::Figure(n, _) | SuiteOutput::Text(n, _) => n,
        }
    }

    /// The text this artifact prints and persists.
    #[must_use]
    pub fn rendered(&self) -> String {
        match self {
            SuiteOutput::Figure(_, e) => output::render(e),
            SuiteOutput::Text(_, t) => t.clone(),
        }
    }

    /// The CSV a figure persists beside its text; `None` for free-form
    /// text.
    #[must_use]
    pub fn csv(&self) -> Option<String> {
        match self {
            SuiteOutput::Figure(_, e) => Some(e.to_csv()),
            SuiteOutput::Text(..) => None,
        }
    }
}

/// A suite task: a pure function from the quality preset to one artifact.
pub type Task = fn(&RunQuality) -> SuiteOutput;

/// A named suite task. The name is the artifact name the task will produce
/// (`spec.run(q).name() == spec.name`), known *before* the task runs — the
/// resilient harness keys resume manifests and chaos injection off it.
/// `run` is a pure function of the preset, so the harness runs it once: a
/// rerun would fail the same way.
#[derive(Clone, Copy, Debug)]
pub struct TaskSpec {
    /// The artifact name (`fig04`, `table2`, ...).
    pub name: &'static str,
    /// The task function.
    pub run: Task,
}

fn fig04(q: &RunQuality) -> SuiteOutput {
    let mut e = figures::fig_sbus(0.1, 4);
    e.add(figures::sbus_sim_series("16/16x1x1 SBUS/2", 0.1, q));
    SuiteOutput::Figure("fig04", e)
}

fn fig05(q: &RunQuality) -> SuiteOutput {
    let mut e = figures::fig_sbus(1.0, 5);
    e.add(figures::sbus_sim_series("16/16x1x1 SBUS/2", 1.0, q));
    SuiteOutput::Figure("fig05", e)
}

fn fig07(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Figure("fig07", figures::fig_xbar(0.1, 7, q))
}

fn fig08(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Figure("fig08", figures::fig_xbar(1.0, 8, q))
}

fn fig12(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Figure("fig12", figures::fig_omega(0.1, 12, q))
}

fn fig13(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Figure("fig13", figures::fig_omega(1.0, 13, q))
}

fn table1(_q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("table1", tables::table1_text())
}

fn table2(q: &RunQuality) -> SuiteOutput {
    let mut t = tables::table2_text();
    t.push('\n');
    t.push_str(&tables::section6_text(q));
    SuiteOutput::Text("table2", t)
}

fn blocking(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("blocking", tables::blocking_text(q))
}

fn fig11(_q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("fig11", tables::fig11_text())
}

fn mapping_example(_q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("mapping_example", tables::mapping_example_text())
}

fn ablation_arbiter(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_arbiter", tables::ablation_arbiter_text(q))
}

fn ablation_stagger(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_stagger", tables::ablation_stagger_text(q))
}

fn ablation_freshness(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_freshness", tables::ablation_freshness_text(q))
}

fn ablation_wiring(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_wiring", tables::ablation_wiring_text(q))
}

fn ablation_placement(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_placement", tables::ablation_placement_text(q))
}

fn ablation_variability(q: &RunQuality) -> SuiteOutput {
    SuiteOutput::Text("ablation_variability", tables::ablation_variability_text(q))
}

/// The suite's tasks in emission order, each under its artifact name.
#[must_use]
pub fn task_specs() -> Vec<TaskSpec> {
    macro_rules! spec {
        ($($f:ident),* $(,)?) => {
            vec![$(TaskSpec { name: stringify!($f), run: $f }),*]
        };
    }
    spec![
        fig04,
        fig05,
        fig07,
        fig08,
        fig12,
        fig13,
        table1,
        table2,
        blocking,
        fig11,
        mapping_example,
        ablation_arbiter,
        ablation_stagger,
        ablation_freshness,
        ablation_wiring,
        ablation_placement,
        ablation_variability,
    ]
}

/// Computes every suite artifact on `quality.jobs()` workers, in emission
/// order. Pin `quality.jobs` to 1 for a fully sequential run — the returned
/// artifacts are identical either way.
#[must_use]
pub fn run_suite(quality: &RunQuality) -> Vec<SuiteOutput> {
    rsin_des::scope_map(&task_specs(), quality.jobs(), |_, t| (t.run)(quality))
}

/// The suite task producing artifact `name`, if there is one.
#[must_use]
pub fn spec(name: &str) -> Option<TaskSpec> {
    task_specs().into_iter().find(|s| s.name == name)
}

/// Prints artifacts in order and persists each under
/// [`output::output_dir`] (`<name>.txt`, plus `<name>.csv` for a figure).
/// Every artifact is printed even when some fail to persist; any failure
/// is reported on stderr and the process then exits with code 1, so
/// scripted runs can detect a missing artifact.
pub fn emit_or_exit(outputs: &[SuiteOutput]) {
    let dir = output::output_dir();
    let mut failed = false;
    for o in outputs {
        let text = o.rendered();
        print!("{text}");
        if let Err(e) = output::persist_in(&dir, o.name(), &text, o.csv().as_deref()) {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The whole `main` of a per-artifact binary: computes suite task `name`
/// at the preset the process arguments select (`--full`, `--jobs`) and
/// emits its artifact through [`emit_or_exit`].
///
/// # Panics
///
/// Panics if `name` is not a suite artifact.
pub fn run_task(name: &str) {
    let spec = spec(name).unwrap_or_else(|| panic!("{name} is not a suite artifact"));
    let quality = RunQuality::from_args();
    emit_or_exit(&[(spec.run)(&quality)]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunQuality {
        RunQuality {
            warmup: 20,
            measured: 120,
            reps: 2,
            trials: 200,
            ..RunQuality::quick()
        }
    }

    #[test]
    fn suite_covers_every_binary_artifact() {
        let q = RunQuality { reps: 1, ..tiny() };
        let specs = task_specs();
        assert_eq!(specs.len(), 17);
        for spec in &specs {
            assert_eq!(
                (spec.run)(&q).name(),
                spec.name,
                "spec name must match the artifact it produces"
            );
        }
        let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
        for expected in ["fig04", "fig13", "table1", "table2", "blocking"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_artifact_is_found_by_name_and_has_a_one_call_binary() {
        let specs = task_specs();
        assert_eq!(specs.len(), 17);
        for s in &specs {
            let found = spec(s.name).unwrap_or_else(|| panic!("{} not found", s.name));
            assert_eq!(found.name, s.name);
            let path = format!("{}/src/bin/{}.rs", env!("CARGO_MANIFEST_DIR"), s.name);
            let bin = std::fs::read_to_string(&path).expect("per-artifact binary exists");
            assert!(
                bin.contains(&format!("run_task(\"{}\")", s.name)),
                "{path} must run its suite task by name"
            );
        }
        assert!(spec("fig99").is_none());
        assert!(spec("resilience").is_none());
        assert!(spec("").is_none());
    }

    #[test]
    fn parallel_suite_is_byte_identical_to_sequential() {
        let seq = run_suite(&RunQuality { jobs: 1, ..tiny() });
        let par = run_suite(&RunQuality { jobs: 4, ..tiny() });
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.name(), p.name());
            assert_eq!(s.rendered(), p.rendered(), "artifact {}", s.name());
            if let (SuiteOutput::Figure(_, se), SuiteOutput::Figure(_, pe)) = (s, p) {
                assert_eq!(se.to_csv(), pe.to_csv(), "CSV for {}", s.name());
            }
        }
    }
}
