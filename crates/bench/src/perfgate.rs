//! The parsing and comparison logic behind `perf_report --check`, as a
//! library so the gate's edge cases are unit-testable without timing
//! anything.
//!
//! `perf_report` persists `BENCH_perf.json` with a hand-rolled writer (one
//! `"name": value` pair per line); this module is the matching hand-rolled
//! reader plus the regression verdicts:
//!
//! - kernels present in the fresh run but absent from the committed
//!   baseline are **recorded, not failed** — adding a kernel must never
//!   turn the gate red ([`Verdict::Recorded`]);
//! - the parallel suite leg is `null` on a single-core host (a 1-worker
//!   "parallel" run measures scheduling overhead, not speedup), carries an
//!   explicit `"skipped_reason"`, and a skipped leg on either side of the
//!   comparison is skipped by the check rather than treated as a
//!   regression ([`LegStatus::Skipped`]).

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
    /// Freshly measured floor, ns/iter.
    pub fresh_ns: f64,
    /// How the kernel fared against the baseline.
    pub verdict: Verdict,
}

/// The outcome of comparing one kernel to the baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Within [`REGRESSION_TOLERANCE`] of the baseline.
    Ok {
        /// Baseline floor, ns/iter.
        baseline_ns: f64,
        /// `fresh / baseline`.
        ratio: f64,
    },
    /// More than [`REGRESSION_TOLERANCE`]× slower than the baseline.
    Regressed {
        /// Baseline floor, ns/iter.
        baseline_ns: f64,
        /// `fresh / baseline`.
        ratio: f64,
    },
    /// Present in the fresh run but absent from the baseline (or the
    /// baseline entry is unusable): the fresh timing becomes the new
    /// baseline entry — recorded, not failed.
    Recorded,
}

/// Extracts `(name, ns_per_iter)` rows from the `kernels_ns_per_iter`
/// object of a previously written `BENCH_perf.json`. Hand-rolled to match
/// the hand-rolled writer — one `"name": value` pair per line.
#[must_use]
pub fn parse_baseline_kernels(json: &str) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    let mut in_kernels = false;
    for line in json.lines() {
        if line.contains("\"kernels_ns_per_iter\"") {
            in_kernels = true;
            continue;
        }
        if in_kernels {
            let entry = line.trim().trim_end_matches(',');
            if entry.starts_with('}') {
                break;
            }
            if let Some((name, value)) = entry.split_once(':') {
                if let Ok(ns) = value.trim().parse::<f64>() {
                    rows.push((name.trim().trim_matches('"').to_string(), ns));
                }
            }
        }
    }
    rows
}

/// Compares fresh kernel timings against the committed baseline JSON,
/// returning one verdict per fresh kernel in input order.
#[must_use]
pub fn check_kernels(baseline_json: &str, fresh: &[(&str, f64)]) -> Vec<KernelCheck> {
    let old = parse_baseline_kernels(baseline_json);
    fresh
        .iter()
        .map(|&(name, fresh_ns)| {
            let verdict = match old.iter().find(|(n, _)| n == name) {
                Some(&(_, baseline_ns)) if baseline_ns > 0.0 => {
                    let ratio = fresh_ns / baseline_ns;
                    if ratio > REGRESSION_TOLERANCE {
                        Verdict::Regressed { baseline_ns, ratio }
                    } else {
                        Verdict::Ok { baseline_ns, ratio }
                    }
                }
                _ => Verdict::Recorded,
            };
            KernelCheck {
                name: name.to_string(),
                fresh_ns,
                verdict,
            }
        })
        .collect()
}

/// Names of the kernels whose verdict is [`Verdict::Regressed`].
#[must_use]
pub fn regressed_names(checks: &[KernelCheck]) -> Vec<String> {
    checks
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::Regressed { .. }))
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

/// Parses the `suite` object of a previously written `BENCH_perf.json`.
/// Tolerates `null` legs and the optional `skipped_reason` field; unknown
/// keys are ignored.
#[must_use]
pub fn parse_suite(json: &str) -> SuiteTimings {
    let mut out = SuiteTimings::default();
    let mut in_suite = false;
    for line in json.lines() {
        if line.contains("\"suite\"") {
            in_suite = true;
            continue;
        }
        if in_suite {
            let entry = line.trim().trim_end_matches(',');
            if entry.starts_with('}') {
                break;
            }
            let Some((key, value)) = entry.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "sequential_seconds" => out.sequential_seconds = value.parse().ok(),
                "parallel_seconds" => out.parallel_seconds = value.parse().ok(),
                "skipped_reason" if value != "null" => {
                    out.skipped_reason = Some(value.trim_matches('"').to_string());
                }
                _ => {}
            }
        }
    }
    out
}

/// Renders the `"suite"` object for the report writer. A skipped parallel
/// leg is written as `null` for both `parallel_seconds` and `speedup`,
/// plus an explicit machine-readable reason, so downstream tooling can
/// tell "skipped on purpose" from "field missing".
#[must_use]
pub fn suite_json(par_jobs: usize, seq_secs: f64, par: &ParallelLeg) -> String {
    let mut s = String::new();
    s.push_str("  \"suite\": {\n");
    s.push_str("    \"sequential_jobs\": 1,\n");
    s.push_str(&format!("    \"parallel_jobs\": {par_jobs},\n"));
    s.push_str(&format!("    \"sequential_seconds\": {seq_secs:.3},\n"));
    match *par {
        ParallelLeg::Measured(p) => {
            s.push_str(&format!("    \"parallel_seconds\": {p:.3},\n"));
            s.push_str(&format!("    \"speedup\": {:.3}\n", seq_secs / p.max(1e-9)));
        }
        ParallelLeg::Skipped { ref reason } => {
            s.push_str("    \"parallel_seconds\": null,\n");
            s.push_str("    \"speedup\": null,\n");
            s.push_str(&format!("    \"skipped_reason\": \"{reason}\"\n"));
        }
    }
    s.push_str("  },\n");
    s
}

/// A parallel suite leg as measured (or not) by the current run.
#[derive(Clone, Debug, PartialEq)]
pub enum ParallelLeg {
    /// Wall seconds of the parallel run.
    Measured(f64),
    /// The leg was not run, with the reason to persist.
    Skipped {
        /// Why — e.g. [`SINGLE_CORE_REASON`].
        reason: String,
    },
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

/// Parses the `scaling_grants_per_sec` object of a previously written
/// `BENCH_perf.json`. Hand-rolled to match [`scaling_json`]: one
/// `"shards_N": { "cpu_cores": C, "<discipline>": rate, ... }` object per
/// line. Unparseable lines are skipped; a missing section is an empty
/// curve.
#[must_use]
pub fn parse_scaling(json: &str) -> Vec<ScalingPoint> {
    let mut points = Vec::new();
    let mut in_scaling = false;
    for line in json.lines() {
        if line.contains("\"scaling_grants_per_sec\"") {
            in_scaling = true;
            continue;
        }
        if in_scaling {
            let entry = line.trim().trim_end_matches(',');
            if entry.starts_with('}') {
                break;
            }
            if let Some(point) = parse_scaling_point(entry) {
                points.push(point);
            }
        }
    }
    points
}

/// One `"shards_N": { ... }` line of the scaling section.
fn parse_scaling_point(entry: &str) -> Option<ScalingPoint> {
    let (name, body) = entry.split_once(':')?;
    let shards = name
        .trim()
        .trim_matches('"')
        .strip_prefix("shards_")?
        .parse::<usize>()
        .ok()?;
    let body = body.trim().strip_prefix('{')?.trim_end_matches(',');
    let body = body.trim().strip_suffix('}')?;
    let mut cpu_cores = None;
    let mut rates = Vec::new();
    for pair in body.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().trim_matches('"');
        let value = value.trim().parse::<f64>().ok()?;
        if key == "cpu_cores" {
            cpu_cores = Some(value as usize);
        } else {
            rates.push((key.to_string(), value));
        }
    }
    Some(ScalingPoint {
        shards,
        cpu_cores: cpu_cores?,
        rates,
    })
}

/// Renders the `"scaling_grants_per_sec"` object for the report writer —
/// nested inside the `broker` section, one point per line so the
/// line-based [`parse_scaling`] round-trips it.
#[must_use]
pub fn scaling_json(points: &[ScalingPoint]) -> String {
    let mut s = String::new();
    s.push_str("    \"scaling_grants_per_sec\": {\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let mut fields = vec![format!("\"cpu_cores\": {}", p.cpu_cores)];
        fields.extend(
            p.rates
                .iter()
                .map(|(name, rate)| format!("\"{name}\": {rate:.0}")),
        );
        s.push_str(&format!(
            "      \"shards_{}\": {{ {} }}{comma}\n",
            p.shards,
            fields.join(", ")
        ));
    }
    s.push_str("    },\n");
    s
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
        let rows = parse_baseline_kernels(BASELINE);
        assert_eq!(
            rows,
            vec![("alpha".to_string(), 100.0), ("beta".to_string(), 2000.5)]
        );
    }

    #[test]
    fn within_tolerance_is_ok_and_beyond_is_regressed() {
        let checks = check_kernels(BASELINE, &[("alpha", 149.0), ("beta", 3001.0)]);
        assert!(matches!(checks[0].verdict, Verdict::Ok { .. }));
        assert!(matches!(
            checks[1].verdict,
            Verdict::Regressed { baseline_ns, .. } if baseline_ns == 2000.5
        ));
        assert_eq!(regressed_names(&checks), vec!["beta".to_string()]);
    }

    #[test]
    fn missing_baseline_kernel_is_recorded_not_failed() {
        let checks = check_kernels(BASELINE, &[("brand_new_kernel", 42.0)]);
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].verdict, Verdict::Recorded);
        assert!(
            regressed_names(&checks).is_empty(),
            "a new kernel must never fail the gate"
        );
    }

    #[test]
    fn zero_or_garbage_baseline_entries_are_recorded() {
        let json = "\"kernels_ns_per_iter\": {\n  \"alpha\": 0.0,\n  \"beta\": oops\n}\n";
        let checks = check_kernels(json, &[("alpha", 50.0), ("beta", 50.0)]);
        assert!(checks.iter().all(|c| c.verdict == Verdict::Recorded));
    }

    #[test]
    fn parses_suite_with_null_leg_and_reason() {
        let suite = parse_suite(BASELINE);
        assert_eq!(suite.sequential_seconds, Some(6.374));
        assert_eq!(suite.parallel_seconds, None);
        assert_eq!(suite.skipped_reason.as_deref(), Some(SINGLE_CORE_REASON));
    }

    #[test]
    fn suite_json_round_trips_both_legs() {
        let skipped = suite_json(
            4,
            6.0,
            &ParallelLeg::Skipped {
                reason: SINGLE_CORE_REASON.to_string(),
            },
        );
        assert!(skipped.contains("\"parallel_seconds\": null"));
        assert!(skipped.contains("\"speedup\": null"));
        let parsed = parse_suite(&skipped);
        assert_eq!(parsed.parallel_seconds, None);
        assert_eq!(parsed.skipped_reason.as_deref(), Some(SINGLE_CORE_REASON));

        let measured = suite_json(4, 6.0, &ParallelLeg::Measured(2.0));
        assert!(measured.contains("\"speedup\": 3.000"));
        assert!(!measured.contains("skipped_reason"));
        let parsed = parse_suite(&measured);
        assert_eq!(parsed.parallel_seconds, Some(2.0));
        assert_eq!(parsed.skipped_reason, None);
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
        let json = scaling_json(&points);
        assert_eq!(parse_scaling(&json), points);
    }

    #[test]
    fn parses_scaling_points_and_ignores_the_kernel_section() {
        let points = parse_scaling(SCALING_BASELINE);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].shards, 1);
        assert_eq!(points[0].cpu_cores, 1);
        assert_eq!(points[0].rates.len(), 3);
        assert_eq!(points[1].shards, 2);
        assert!(parse_scaling("{}\n").is_empty(), "missing section is empty");
    }

    #[test]
    fn scaling_points_compare_only_at_matching_shards_and_cores() {
        let baseline = parse_scaling(SCALING_BASELINE);
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
