//! The parsing and comparison logic behind `perf_report --check`, as a
//! library so the gate's edge cases are unit-testable without timing
//! anything.
//!
//! `perf_report` writes `BENCH_perf.json` as one [`Value`] tree; this
//! module builds the sections the gate reads back, reads the committed
//! baseline through the same [`crate::json`] parser by key path — so any
//! valid re-indentation of the file reads the same — and holds the
//! regression verdicts:
//!
//! - kernels present in the fresh run but absent from the committed
//!   baseline are **recorded, not failed** — adding a kernel must never
//!   turn the gate red ([`Verdict::Recorded`]);
//! - kernels in the committed baseline that the fresh run no longer
//!   measures **fail** — a kernel must not drop out of the gate without a
//!   word ([`Verdict::Missing`]);
//! - the parallel suite leg is `null` on a single-core host (a 1-worker
//!   "parallel" run measures scheduling overhead, not speedup), carries an
//!   explicit `"skipped_reason"`, and a skipped leg on either side of the
//!   comparison is skipped by the check rather than treated as a
//!   regression ([`LegStatus::Skipped`]).

use crate::json::Value;

/// A kernel this much slower than the committed baseline fails `--check`.
/// Wide enough to absorb shared-runner noise, tight enough to catch a real
/// hot-path regression.
pub const REGRESSION_TOLERANCE: f64 = 1.5;

/// The reason recorded (and re-parsed) for a skipped parallel suite leg on
/// a host with one CPU.
pub const SINGLE_CORE_REASON: &str = "single core";

/// One kernel's comparison against the committed baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelCheck {
    /// Kernel name as written to `kernels_ns_per_iter`.
    pub name: String,
    /// How the kernel fared against the baseline.
    pub verdict: Verdict,
}

/// The outcome of comparing one kernel to the baseline. Timings are
/// floors in ns/iter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Within [`REGRESSION_TOLERANCE`] of the baseline.
    Ok {
        /// Baseline floor.
        baseline_ns: f64,
        /// Freshly measured floor.
        fresh_ns: f64,
    },
    /// More than [`REGRESSION_TOLERANCE`]× slower than the baseline.
    Regressed {
        /// Baseline floor.
        baseline_ns: f64,
        /// Freshly measured floor.
        fresh_ns: f64,
    },
    /// Present in the fresh run but absent from the baseline (or the
    /// baseline entry is unusable): the fresh timing becomes the new
    /// baseline entry — recorded, not failed.
    Recorded {
        /// Freshly measured floor.
        fresh_ns: f64,
    },
    /// In the baseline but not measured by the fresh run: failed, like a
    /// regression.
    Missing {
        /// Baseline floor.
        baseline_ns: f64,
    },
}

/// The `(name, ns_per_iter)` rows of a report's `kernels_ns_per_iter`
/// object, in file order. Entries that are not numbers are skipped.
#[must_use]
pub fn baseline_kernels(report: &Value) -> Vec<(String, f64)> {
    let kernels = report.get("kernels_ns_per_iter").and_then(Value::as_object);
    kernels
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, ns)| Some((name.clone(), ns.as_f64()?)))
        .collect()
}

/// Compares fresh kernel timings against the committed baseline report,
/// returning one verdict per fresh kernel in input order, then one
/// [`Verdict::Missing`] per baseline kernel the fresh run lacks, in file
/// order.
#[must_use]
pub fn check_kernels(baseline: &Value, fresh: &[(&str, f64)]) -> Vec<KernelCheck> {
    let old = baseline_kernels(baseline);
    let measured = fresh.iter().map(|&(name, fresh_ns)| {
        let verdict = match old.iter().find(|(n, _)| n == name) {
            Some(&(_, baseline_ns)) if baseline_ns > 0.0 => {
                if fresh_ns / baseline_ns > REGRESSION_TOLERANCE {
                    Verdict::Regressed {
                        baseline_ns,
                        fresh_ns,
                    }
                } else {
                    Verdict::Ok {
                        baseline_ns,
                        fresh_ns,
                    }
                }
            }
            _ => Verdict::Recorded { fresh_ns },
        };
        (name.to_string(), verdict)
    });
    let missing = old
        .iter()
        .filter(|(name, _)| !fresh.iter().any(|&(n, _)| n == name))
        .map(|(name, ns)| (name.clone(), Verdict::Missing { baseline_ns: *ns }));
    measured
        .chain(missing)
        .map(|(name, verdict)| KernelCheck { name, verdict })
        .collect()
}

/// Names of the kernels that fail the gate: [`Verdict::Regressed`] and
/// [`Verdict::Missing`].
#[must_use]
pub fn failed_names(checks: &[KernelCheck]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| {
            matches!(
                c.verdict,
                Verdict::Regressed { .. } | Verdict::Missing { .. }
            )
        })
        .map(|c| c.name.clone())
        .collect()
}

/// The `suite` section of a perf report: wall-clock legs that may be
/// skipped (recorded as `null` plus a `skipped_reason`) rather than
/// measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuiteTimings {
    /// `--jobs 1` wall time, if the section was present and parseable.
    pub sequential_seconds: Option<f64>,
    /// Parallel-leg wall time; `None` when the leg was skipped or absent.
    pub parallel_seconds: Option<f64>,
    /// Why the parallel leg was skipped, when it was.
    pub skipped_reason: Option<String>,
}

/// Reads the `suite` object of a report. A `null` or missing leg is
/// `None`; unknown keys are ignored.
#[must_use]
pub fn suite_timings(report: &Value) -> SuiteTimings {
    let field = |key: &str| report.at(&["suite", key]);
    SuiteTimings {
        sequential_seconds: field("sequential_seconds").and_then(Value::as_f64),
        parallel_seconds: field("parallel_seconds").and_then(Value::as_f64),
        skipped_reason: field("skipped_reason")
            .and_then(Value::as_str)
            .map(str::to_string),
    }
}

/// The `suite` object for the report writer. A skipped parallel leg is
/// written as `null` for both `parallel_seconds` and `speedup`, plus its
/// `skipped_reason`, so downstream tooling can tell "skipped on purpose"
/// from "field missing".
#[must_use]
pub fn suite_section(suite: &SuiteTimings, parallel_jobs: usize) -> Value {
    let seconds = |s: Option<f64>| s.map_or(Value::Null, |s| Value::fixed(s, 3));
    let speedup = suite
        .sequential_seconds
        .zip(suite.parallel_seconds)
        .map(|(seq, par)| seq / par.max(1e-9));
    let mut fields = vec![
        ("sequential_jobs", Value::from(1u64)),
        ("parallel_jobs", Value::from(parallel_jobs)),
        ("sequential_seconds", seconds(suite.sequential_seconds)),
        ("parallel_seconds", seconds(suite.parallel_seconds)),
        ("speedup", seconds(speedup)),
    ];
    if let Some(reason) = &suite.skipped_reason {
        fields.push(("skipped_reason", Value::from(reason.as_str())));
    }
    Value::object(fields)
}

/// Whether the parallel suite leg participates in a baseline comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum LegStatus {
    /// Both the baseline and the fresh run measured the leg.
    Compared {
        /// Baseline wall seconds.
        baseline_secs: f64,
        /// Fresh wall seconds.
        fresh_secs: f64,
    },
    /// At least one side skipped the leg; the check skips it too instead
    /// of comparing a timing to a `null`.
    Skipped {
        /// The recorded reason, or `"not measured"` if none was persisted.
        reason: String,
    },
}

/// Decides whether `--check` compares the parallel leg. Either side having
/// skipped it (a `null` timing) makes the whole comparison a skip — never
/// a failure.
#[must_use]
pub fn parallel_leg_status(baseline: &SuiteTimings, fresh: &SuiteTimings) -> LegStatus {
    match (baseline.parallel_seconds, fresh.parallel_seconds) {
        (Some(baseline_secs), Some(fresh_secs)) => LegStatus::Compared {
            baseline_secs,
            fresh_secs,
        },
        _ => LegStatus::Skipped {
            reason: fresh
                .skipped_reason
                .clone()
                .or_else(|| baseline.skipped_reason.clone())
                .unwrap_or_else(|| "not measured".to_string()),
        },
    }
}

/// One point of the broker scaling curve: saturated grants/sec per
/// discipline at a given logical-shard count, stamped with the host's CPU
/// core count so `--check` never compares curves measured on different
/// machines.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Logical shards the pool was partitioned into.
    pub shards: usize,
    /// `available_parallelism` of the host that measured the point.
    pub cpu_cores: usize,
    /// `(discipline, grants_per_sec)` rows, in emission order.
    pub rates: Vec<(String, f64)>,
}

/// Reads the `broker.scaling_grants_per_sec` object of a report: one
/// `"shards_N": { "cpu_cores": C, "<discipline>": rate, ... }` point per
/// key. A point with a malformed key or field is skipped; a missing
/// section is an empty curve.
#[must_use]
pub fn scaling_curve(report: &Value) -> Vec<ScalingPoint> {
    let section = report.at(&["broker", "scaling_grants_per_sec"]);
    let point = |key: &str, fields: &Value| {
        let cpu_cores = usize::try_from(fields.get("cpu_cores")?.as_u64()?).ok()?;
        let rates = fields
            .as_object()?
            .iter()
            .filter(|(name, _)| name != "cpu_cores")
            .map(|(name, rate)| Some((name.clone(), rate.as_f64()?)))
            .collect::<Option<_>>()?;
        Some(ScalingPoint {
            shards: key.strip_prefix("shards_")?.parse().ok()?,
            cpu_cores,
            rates,
        })
    };
    section
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(key, fields)| point(key, fields))
        .collect()
}

/// The `scaling_grants_per_sec` object for the report writer, rates in
/// whole grants per second.
#[must_use]
pub fn scaling_section(points: &[ScalingPoint]) -> Value {
    Value::object(points.iter().map(|p| {
        let rates = p
            .rates
            .iter()
            .map(|(name, rate)| (name.clone(), Value::fixed(*rate, 0)));
        let fields = std::iter::once(("cpu_cores".to_string(), Value::from(p.cpu_cores)));
        (
            format!("shards_{}", p.shards),
            Value::object(fields.chain(rates)),
        )
    }))
}

/// Whether one fresh scaling point participates in a baseline comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum ScalingStatus {
    /// A baseline point with the same shard count was measured on a host
    /// with the same core count: per-discipline `fresh / baseline` ratios.
    Compared {
        /// `(discipline, fresh_rate / baseline_rate)` for every discipline
        /// present on both sides.
        ratios: Vec<(String, f64)>,
    },
    /// No comparable baseline point; the check skips it with the reason,
    /// exactly like the single-core parallel-leg skip.
    Skipped {
        /// Why the point is not compared.
        reason: String,
    },
}

/// Decides whether `--check` compares one fresh scaling point against the
/// baseline curve. Throughput only compares like for like: a missing
/// baseline point or a different host core count is a skip-with-reason,
/// never a failure.
#[must_use]
pub fn scaling_point_status(baseline: &[ScalingPoint], fresh: &ScalingPoint) -> ScalingStatus {
    let Some(old) = baseline.iter().find(|p| p.shards == fresh.shards) else {
        return ScalingStatus::Skipped {
            reason: format!("no baseline point for {} shard(s)", fresh.shards),
        };
    };
    if old.cpu_cores != fresh.cpu_cores {
        return ScalingStatus::Skipped {
            reason: format!(
                "core counts differ (baseline {}, fresh {})",
                old.cpu_cores, fresh.cpu_cores
            ),
        };
    }
    let ratios = fresh
        .rates
        .iter()
        .filter_map(|(name, fresh_rate)| {
            let (_, old_rate) = old.rates.iter().find(|(n, _)| n == name)?;
            (*old_rate > 0.0).then(|| (name.clone(), fresh_rate / old_rate))
        })
        .collect();
    ScalingStatus::Compared { ratios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("valid JSON")
    }

    /// The committed baseline, exactly as `--check` reads it. These
    /// assertions pin its recorded values: update them whenever
    /// `BENCH_perf.json` is re-recorded.
    const COMMITTED: &str = include_str!("../../../BENCH_perf.json");

    fn sections(report: &Value) -> (Vec<(String, f64)>, SuiteTimings, Vec<ScalingPoint>) {
        (
            baseline_kernels(report),
            suite_timings(report),
            scaling_curve(report),
        )
    }

    #[test]
    fn reads_the_committed_baseline() {
        let (kernels, suite, scaling) = sections(&doc(COMMITTED));
        assert_eq!(kernels.len(), 12);
        assert_eq!(suite.sequential_seconds, Some(2.357));
        assert_eq!(suite.parallel_seconds, None);
        assert_eq!(suite.skipped_reason.as_deref(), Some(SINGLE_CORE_REASON));
        assert_eq!(scaling.len(), 3);
        assert!(scaling.iter().all(|p| p.cpu_cores == 1));
    }

    #[test]
    fn a_reindented_baseline_reads_identically() {
        let one_line = COMMITTED
            .lines()
            .map(str::trim)
            .collect::<Vec<_>>()
            .join(" ");
        assert!(!one_line.contains('\n'));
        assert_eq!(sections(&doc(&one_line)), sections(&doc(COMMITTED)));
    }

    const BASELINE: &str = r#"{
  "preset": "quick",
  "cpu_cores": 1,
  "suite": {
    "sequential_jobs": 1,
    "parallel_jobs": 1,
    "sequential_seconds": 6.374,
    "parallel_seconds": null,
    "speedup": null,
    "skipped_reason": "single core"
  },
  "kernels_ns_per_iter": {
    "alpha": 100.0,
    "beta": 2000.5
  }
}
"#;

    #[test]
    fn parses_kernel_rows() {
        let rows = baseline_kernels(&doc(BASELINE));
        assert_eq!(
            rows,
            vec![("alpha".to_string(), 100.0), ("beta".to_string(), 2000.5)]
        );
    }

    #[test]
    fn within_tolerance_is_ok_and_beyond_is_regressed() {
        let checks = check_kernels(&doc(BASELINE), &[("alpha", 149.0), ("beta", 3001.0)]);
        assert!(matches!(checks[0].verdict, Verdict::Ok { .. }));
        assert!(matches!(
            checks[1].verdict,
            Verdict::Regressed { baseline_ns, .. } if baseline_ns == 2000.5
        ));
        assert_eq!(failed_names(&checks), vec!["beta".to_string()]);
    }

    #[test]
    fn missing_baseline_kernel_is_recorded_not_failed() {
        let checks = check_kernels(
            &doc(BASELINE),
            &[
                ("alpha", 100.0),
                ("beta", 2000.0),
                ("brand_new_kernel", 42.0),
            ],
        );
        assert_eq!(checks.len(), 3);
        assert_eq!(checks[2].verdict, Verdict::Recorded { fresh_ns: 42.0 });
        assert!(
            failed_names(&checks).is_empty(),
            "a new kernel must never fail the gate"
        );
    }

    #[test]
    fn kernel_missing_from_the_fresh_run_fails() {
        let checks = check_kernels(&doc(BASELINE), &[("alpha", 100.0)]);
        assert_eq!(
            checks[1],
            KernelCheck {
                name: "beta".to_string(),
                verdict: Verdict::Missing {
                    baseline_ns: 2000.5
                },
            }
        );
        assert_eq!(
            failed_names(&checks),
            vec!["beta".to_string()],
            "a kernel that drops out of the run must fail the gate"
        );
    }

    #[test]
    fn zero_or_garbage_baseline_entries_are_recorded() {
        let json = doc(r#"{"kernels_ns_per_iter": {"alpha": 0.0, "beta": "oops"}}"#);
        let checks = check_kernels(&json, &[("alpha", 50.0), ("beta", 50.0)]);
        assert!(checks
            .iter()
            .all(|c| c.verdict == Verdict::Recorded { fresh_ns: 50.0 }));
    }

    #[test]
    fn parses_suite_with_null_leg_and_reason() {
        let suite = suite_timings(&doc(BASELINE));
        assert_eq!(suite.sequential_seconds, Some(6.374));
        assert_eq!(suite.parallel_seconds, None);
        assert_eq!(suite.skipped_reason.as_deref(), Some(SINGLE_CORE_REASON));
    }

    /// Renders a report and reads the text back.
    fn reparse(report: &Value) -> (String, Value) {
        let text = report.to_pretty();
        let back = doc(&text);
        (text, back)
    }

    #[test]
    fn suite_section_round_trips_both_legs() {
        let skipped = SuiteTimings {
            sequential_seconds: Some(6.0),
            parallel_seconds: None,
            skipped_reason: Some(SINGLE_CORE_REASON.to_string()),
        };
        let (text, back) = reparse(&Value::object([("suite", suite_section(&skipped, 4))]));
        assert!(text.contains("\"parallel_seconds\": null"));
        assert!(text.contains("\"speedup\": null"));
        assert_eq!(suite_timings(&back), skipped);

        let measured = SuiteTimings {
            sequential_seconds: Some(6.0),
            parallel_seconds: Some(2.0),
            skipped_reason: None,
        };
        let (text, back) = reparse(&Value::object([("suite", suite_section(&measured, 4))]));
        assert!(text.contains("\"sequential_seconds\": 6.000"));
        assert!(text.contains("\"speedup\": 3.000"));
        assert!(!text.contains("skipped_reason"));
        assert_eq!(suite_timings(&back), measured);
    }

    const SCALING_BASELINE: &str = r#"{
  "broker": {
    "scaling_grants_per_sec": {
      "shards_1": { "cpu_cores": 1, "sbus": 100000, "xbar_token": 200000, "omega": 150000 },
      "shards_2": { "cpu_cores": 1, "sbus": 110000, "xbar_token": 210000, "omega": 160000 }
    },
    "kernels_ns_per_iter": {
      "alpha": 100.0
    }
  }
}
"#;

    #[test]
    fn scaling_curve_round_trips_through_the_writer() {
        let points = vec![
            ScalingPoint {
                shards: 1,
                cpu_cores: 1,
                rates: vec![("sbus".into(), 100_000.0), ("omega".into(), 150_000.0)],
            },
            ScalingPoint {
                shards: 4,
                cpu_cores: 2,
                rates: vec![("sbus".into(), 120_000.0), ("omega".into(), 170_000.0)],
            },
        ];
        let section = Value::object([("scaling_grants_per_sec", scaling_section(&points))]);
        let (text, back) = reparse(&Value::object([("broker", section)]));
        assert!(text
            .contains("\"shards_1\": { \"cpu_cores\": 1, \"sbus\": 100000, \"omega\": 150000 }"));
        assert_eq!(scaling_curve(&back), points);
    }

    #[test]
    fn parses_scaling_points_and_ignores_the_kernel_section() {
        let points = scaling_curve(&doc(SCALING_BASELINE));
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].shards, 1);
        assert_eq!(points[0].cpu_cores, 1);
        assert_eq!(points[0].rates.len(), 3);
        assert_eq!(points[1].shards, 2);
        assert!(
            scaling_curve(&doc("{}")).is_empty(),
            "missing section is empty"
        );
    }

    #[test]
    fn scaling_points_compare_only_at_matching_shards_and_cores() {
        let baseline = scaling_curve(&doc(SCALING_BASELINE));
        let fresh = ScalingPoint {
            shards: 1,
            cpu_cores: 1,
            rates: vec![("sbus".into(), 50_000.0), ("brand_new".into(), 1.0)],
        };
        match scaling_point_status(&baseline, &fresh) {
            ScalingStatus::Compared { ratios } => {
                // Only the discipline on both sides is ratioed.
                assert_eq!(ratios.len(), 1);
                assert_eq!(ratios[0].0, "sbus");
                assert!((ratios[0].1 - 0.5).abs() < 1e-12);
            }
            other => panic!("expected a comparison, got {other:?}"),
        }

        let unknown_shards = ScalingPoint {
            shards: 4,
            ..fresh.clone()
        };
        assert_eq!(
            scaling_point_status(&baseline, &unknown_shards),
            ScalingStatus::Skipped {
                reason: "no baseline point for 4 shard(s)".to_string()
            }
        );

        let other_host = ScalingPoint {
            cpu_cores: 8,
            ..fresh
        };
        assert_eq!(
            scaling_point_status(&baseline, &other_host),
            ScalingStatus::Skipped {
                reason: "core counts differ (baseline 1, fresh 8)".to_string()
            }
        );
    }

    #[test]
    fn skipped_leg_on_either_side_skips_the_comparison() {
        let measured = SuiteTimings {
            sequential_seconds: Some(6.0),
            parallel_seconds: Some(2.0),
            skipped_reason: None,
        };
        let skipped = SuiteTimings {
            sequential_seconds: Some(6.0),
            parallel_seconds: None,
            skipped_reason: Some(SINGLE_CORE_REASON.to_string()),
        };
        assert_eq!(
            parallel_leg_status(&measured, &measured),
            LegStatus::Compared {
                baseline_secs: 2.0,
                fresh_secs: 2.0
            }
        );
        for (b, f) in [
            (&measured, &skipped),
            (&skipped, &measured),
            (&skipped, &skipped),
        ] {
            assert_eq!(
                parallel_leg_status(b, f),
                LegStatus::Skipped {
                    reason: SINGLE_CORE_REASON.to_string()
                },
                "a null leg must be skipped, not compared"
            );
        }
        let bare = SuiteTimings::default();
        assert_eq!(
            parallel_leg_status(&bare, &bare),
            LegStatus::Skipped {
                reason: "not measured".to_string()
            }
        );
    }
}
