//! `paper_suite`: the 17 figure and table tasks at the quick preset on one
//! worker, each artifact rendered and digested.

use rsin_bench::manifest::fnv1a64;
use rsin_bench::suite::TaskSpec;
use rsin_bench::RunQuality;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Recorded artifact digests, one line per shipped seed.
const DIGESTS: &str = include_str!("../digests/paper_suite.txt");

/// The quick preset on one worker, seeded by the workload seed.
pub fn quality(seed: u64) -> RunQuality {
    RunQuality {
        seed,
        jobs: 1,
        ..RunQuality::quick()
    }
}

/// One computed artifact: its task time and digest (`None` if it panicked).
#[derive(Debug)]
pub struct TaskRun {
    pub name: &'static str,
    pub secs: f64,
    pub digest: Option<u64>,
}

/// Computes and renders every task in order, timing each.
pub fn run_tasks(specs: &[TaskSpec], q: &RunQuality) -> Vec<TaskRun> {
    specs
        .iter()
        .map(|spec| {
            let t0 = Instant::now();
            let rendered = catch_unwind(AssertUnwindSafe(|| (spec.run)(q).rendered()));
            TaskRun {
                name: spec.name,
                secs: t0.elapsed().as_secs_f64(),
                digest: rendered.ok().map(|text| fnv1a64(text.as_bytes())),
            }
        })
        .collect()
}

/// The recorded per-artifact digests of `seed`, in task order, if shipped.
pub fn recorded(seed: u64) -> Option<Vec<u64>> {
    DIGESTS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        fields.map(|h| u64::from_str_radix(h, 16).ok()).collect()
    })
}

/// The digest line of a run, in the format of the recorded table.
pub fn digest_line(seed: u64, runs: &[TaskRun]) -> String {
    let mut line = seed.to_string();
    for r in runs {
        match r.digest {
            Some(d) => line.push_str(&format!(" {d:016x}")),
            None => line.push_str(" panicked"),
        }
    }
    line
}

/// Tasks whose artifact is wrong: panicked, or (for a shipped seed)
/// digested differently from the record.
pub fn wrong(runs: &[TaskRun], recorded: Option<&[u64]>) -> Vec<&'static str> {
    runs.iter()
        .enumerate()
        .filter(|(i, r)| match (r.digest, recorded) {
            (None, _) => true,
            (Some(d), Some(rec)) => rec.get(*i) != Some(&d),
            (Some(_), None) => false,
        })
        .map(|(_, r)| r.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_table_covers_every_task() {
        let n = rsin_bench::suite::task_specs().len();
        assert_eq!(n, 17);
        let rec = recorded(0).expect("seed 0 is shipped");
        assert_eq!(rec.len(), n);
        assert!(recorded(u64::MAX).is_none());
    }

    #[test]
    fn wrong_flags_panics_and_mismatches() {
        let runs = vec![
            TaskRun {
                name: "a",
                secs: 0.0,
                digest: Some(1),
            },
            TaskRun {
                name: "b",
                secs: 0.0,
                digest: None,
            },
            TaskRun {
                name: "c",
                secs: 0.0,
                digest: Some(3),
            },
        ];
        assert_eq!(wrong(&runs, None), vec!["b"]);
        assert_eq!(wrong(&runs, Some(&[1, 2, 4])), vec!["b", "c"]);
        assert_eq!(
            digest_line(9, &runs),
            "9 0000000000000001 panicked 0000000000000003"
        );
    }
}
