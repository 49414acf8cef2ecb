//! The provisioning sweep behind the `provision` binary: one search leg
//! per processor count, with digest-validated resumable checkpoints.
//!
//! Each leg runs [`rsin_provision::search`] at one `p` and persists two
//! deterministic artifacts — `provision_p<p>.txt` (the report) and
//! `provision_p<p>.csv` (the Pareto frontier, stable schema
//! [`FRONTIER_SCHEMA`]) — atomically, then checkpoints
//! `provision_manifest.json`. A killed sweep restarted with `--resume`
//! skips every leg whose manifest digests still match the files on disk
//! and recomputes the rest; final artifacts are byte-identical to an
//! uninterrupted run for any `--jobs` value (wall-clock timings live only
//! in the stderr summary, never in artifacts).

use crate::manifest::{Manifest, ManifestEntry};
use crate::output;
use rsin_core::{ConfigError, HarnessError};
use rsin_provision::{
    search, CostModel, DelayOutcome, EvalQuality, Evaluator, Family, SearchReport, SearchSpec,
    TrafficProfile,
};
use std::path::PathBuf;
use std::time::Instant;

/// The frontier CSV header — a stable schema CI asserts against.
pub const FRONTIER_SCHEMA: &str = "family,config,cost,normalized_delay,half_width,method";

/// Checkpoint file name under the output directory.
pub const MANIFEST_NAME: &str = "provision_manifest.json";

/// Parsed command line of the `provision` binary.
#[derive(Clone, Debug, PartialEq)]
pub struct ProvisionConfig {
    /// Processor counts to search, one leg each.
    pub processors: Vec<u32>,
    /// Traffic intensity at the `R = 2p` reference pool.
    pub rho: f64,
    /// Service/transmission ratio `µ_s/µ_n`.
    pub ratio: f64,
    /// SLO: maximum normalized queueing delay.
    pub target: f64,
    /// Families to explore.
    pub families: Vec<Family>,
    /// Resource-axis budget per shape.
    pub max_r: u32,
    /// Confirm winners by DES.
    pub confirm: bool,
    /// Re-check winners with one resource port failed.
    pub fault_recheck: bool,
    /// Publication-grade simulation effort (`--full`).
    pub full: bool,
    /// Worker threads (0 = auto).
    pub jobs: usize,
    /// Skip digest-valid legs from a previous run.
    pub resume: bool,
    /// Output directory override.
    pub out_dir: Option<PathBuf>,
    /// Unit prices.
    pub cost: CostModel,
}

impl Default for ProvisionConfig {
    fn default() -> Self {
        ProvisionConfig {
            processors: vec![16],
            rho: 0.3,
            ratio: 0.1,
            target: 1.0,
            families: Family::ALL.to_vec(),
            max_r: 64,
            confirm: true,
            fault_recheck: false,
            full: false,
            jobs: 0,
            resume: false,
            out_dir: None,
            cost: CostModel::default(),
        }
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, ConfigError> {
    v.parse().map_err(|_| ConfigError::Parse {
        input: format!("{flag} {v}"),
        expected: "a number",
    })
}

fn parse_list<T: std::str::FromStr>(flag: &str, v: &str) -> Result<Vec<T>, ConfigError> {
    let mut out = Vec::new();
    for part in v.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        out.push(part.parse().map_err(|_| ConfigError::Parse {
            input: format!("{flag} {v}"),
            expected: "a comma-separated list",
        })?);
    }
    if out.is_empty() {
        return Err(ConfigError::Parse {
            input: format!("{flag} {v}"),
            expected: "a non-empty comma-separated list",
        });
    }
    Ok(out)
}

impl ProvisionConfig {
    /// Parses the binary's arguments.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending flag and value.
    pub fn try_from_args(args: &[String]) -> Result<Self, ConfigError> {
        let mut cfg = ProvisionConfig::default();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, ConfigError> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| ConfigError::Parse {
                input: flag.to_string(),
                expected: "a value after the flag",
            })
        };
        while i < args.len() {
            let arg = args[i].clone();
            match arg.as_str() {
                "--p" => cfg.processors = parse_list("--p", &value(&mut i, "--p")?)?,
                "--rho" => cfg.rho = parse_num("--rho", &value(&mut i, "--rho")?)?,
                "--ratio" => cfg.ratio = parse_num("--ratio", &value(&mut i, "--ratio")?)?,
                "--target" => cfg.target = parse_num("--target", &value(&mut i, "--target")?)?,
                "--families" => {
                    cfg.families = parse_list("--families", &value(&mut i, "--families")?)?;
                }
                "--max-r" => cfg.max_r = parse_num("--max-r", &value(&mut i, "--max-r")?)?,
                "--jobs" => cfg.jobs = parse_num("--jobs", &value(&mut i, "--jobs")?)?,
                "--out-dir" => cfg.out_dir = Some(PathBuf::from(value(&mut i, "--out-dir")?)),
                "--cost-resource" => {
                    cfg.cost.per_resource =
                        parse_num("--cost-resource", &value(&mut i, "--cost-resource")?)?;
                }
                "--cost-switch-point" => {
                    cfg.cost.per_switch_point = parse_num(
                        "--cost-switch-point",
                        &value(&mut i, "--cost-switch-point")?,
                    )?;
                }
                "--cost-bus-tap" => {
                    cfg.cost.per_bus_tap =
                        parse_num("--cost-bus-tap", &value(&mut i, "--cost-bus-tap")?)?;
                }
                "--no-confirm" => cfg.confirm = false,
                "--fault-recheck" => cfg.fault_recheck = true,
                "--full" => cfg.full = true,
                "--quick" => cfg.full = false,
                "--resume" => cfg.resume = true,
                other => {
                    return Err(ConfigError::Parse {
                        input: other.to_string(),
                        expected: "a provision flag (--p, --rho, --ratio, --target, --families, \
                                   --max-r, --jobs, --out-dir, --cost-*, --no-confirm, \
                                   --fault-recheck, --full, --quick, --resume)",
                    });
                }
            }
            i += 1;
        }
        if !cfg.cost.is_valid() {
            return Err(ConfigError::Parse {
                input: "--cost-*".to_string(),
                expected: "finite non-negative unit prices",
            });
        }
        Ok(cfg)
    }

    /// [`ProvisionConfig::try_from_args`] over the process arguments; a
    /// malformed flag is an actionable message on stderr and exit code 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match ProvisionConfig::try_from_args(&args) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Identity of this sweep for manifest validation: a resumed run with
    /// any different search-relevant knob recomputes everything. `--jobs`,
    /// `--resume`, and `--out-dir` are deliberately excluded — they never
    /// change results.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let families: Vec<&str> = self.families.iter().map(Family::token).collect();
        format!(
            "rho={} ratio={} target={} families={} max_r={} confirm={} fault={} full={} \
             cost={}/{}/{}/{}",
            self.rho,
            self.ratio,
            self.target,
            families.join("+"),
            self.max_r,
            self.confirm,
            self.fault_recheck,
            self.full,
            self.cost.per_switch_point,
            self.cost.per_bus_tap,
            self.cost.per_resource,
            self.cost.per_processor,
        )
    }

    fn quality(&self) -> (EvalQuality, EvalQuality) {
        let jobs = if self.jobs == 0 {
            rsin_des::default_jobs()
        } else {
            self.jobs
        };
        if self.full {
            (
                EvalQuality {
                    warmup: 2_000,
                    measured: 16_000,
                    reps: 3,
                    jobs,
                },
                EvalQuality {
                    warmup: 5_000,
                    measured: 40_000,
                    reps: 5,
                    jobs,
                },
            )
        } else {
            (EvalQuality::quick(jobs), EvalQuality::confirm(jobs))
        }
    }

    fn spec_for(&self, p: u32) -> Result<SearchSpec, ConfigError> {
        let (quality, confirm_quality) = self.quality();
        let mut spec = SearchSpec::new(p, self.rho, self.ratio, self.target)?;
        spec.families = self.families.clone();
        spec.max_resources_per_port = self.max_r;
        spec.cost_model = self.cost;
        spec.quality = quality;
        spec.confirm = self.confirm.then_some(confirm_quality);
        spec.fault_recheck = self.fault_recheck;
        Ok(spec)
    }
}

/// What one leg contributed to the sweep.
#[derive(Clone, Debug)]
pub struct LegSummary {
    /// Leg name (`p16`, `p1024`, ...).
    pub name: String,
    /// Whether the leg was skipped via a digest-valid checkpoint.
    pub resumed: bool,
    /// The winning configuration, rendered (`None` when infeasible).
    pub winner: Option<String>,
    /// Configurations evaluated (0 for resumed legs).
    pub evaluated: u64,
    /// Enumerated configurations (0 for resumed legs).
    pub total_configs: u64,
    /// Configurations pruned by monotone inference.
    pub pruned: u64,
    /// Shared-bus cache hits during the leg.
    pub cache_hits: u64,
    /// Shared-bus cache misses during the leg.
    pub cache_misses: u64,
    /// Whether the DES confirmation (if run) found the winner meeting its
    /// delay target. This is the pass/fail signal: the analytic search
    /// decomposes multi-bus systems into independent per-bus chains, which
    /// is conservative for fabrics that actually share resources, so the
    /// simulated system may beat the predicted delay without that being
    /// an error.
    pub confirmed: Option<bool>,
    /// Whether the DES-measured delay also agreed numerically with the
    /// search's analytic estimate (informational; see [`Self::confirmed`]).
    pub agrees: Option<bool>,
}

/// The whole sweep's outcome.
#[derive(Clone, Debug)]
pub struct ProvisionSummary {
    /// Per-leg outcomes, in `--p` order.
    pub legs: Vec<LegSummary>,
    /// Output directory used.
    pub out_dir: PathBuf,
    /// Wall-clock seconds for the whole sweep (informational only; never
    /// part of any artifact).
    pub wall_seconds: f64,
}

impl ProvisionSummary {
    /// Legs skipped via checkpoint.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.legs.iter().filter(|l| l.resumed).count()
    }

    /// Total configurations evaluated across computed legs.
    #[must_use]
    pub fn evaluated(&self) -> u64 {
        self.legs.iter().map(|l| l.evaluated).sum()
    }

    /// Fraction of the enumerated space never evaluated.
    #[must_use]
    pub fn pruned_fraction(&self) -> f64 {
        let total: u64 = self.legs.iter().map(|l| l.total_configs).sum();
        if total == 0 {
            0.0
        } else {
            (total - self.evaluated()) as f64 / total as f64
        }
    }

    /// Cache hit rate across computed legs.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.legs.iter().map(|l| l.cache_hits).sum();
        let misses: u64 = self.legs.iter().map(|l| l.cache_misses).sum();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Renders the frontier CSV (schema [`FRONTIER_SCHEMA`]).
#[must_use]
pub fn frontier_csv(report: &SearchReport) -> String {
    let mut csv = String::from(FRONTIER_SCHEMA);
    csv.push('\n');
    for c in &report.frontier {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            c.topo.family_token(),
            c.topo,
            c.cost,
            c.delay.normalized_delay,
            c.delay.half_width,
            c.delay.method.token(),
        ));
    }
    csv
}

/// Renders the per-leg text report. Deterministic: full-precision floats,
/// no timestamps or wall-clock figures.
#[must_use]
pub fn leg_text(cfg: &ProvisionConfig, p: u32, report: &SearchReport) -> String {
    let mut t = String::new();
    t.push_str(&format!(
        "Provisioning search: p = {p}, rho = {}, mu_s/mu_n = {}, SLO d*mu_s <= {}\n",
        cfg.rho, cfg.ratio, cfg.target
    ));
    let families: Vec<&str> = cfg.families.iter().map(Family::token).collect();
    t.push_str(&format!(
        "families: {}; r <= {}\n\n",
        families.join(","),
        cfg.max_r
    ));
    match &report.winner {
        Some(w) => {
            t.push_str(&format!(
                "winner: {} cost {} delay {} ({})\n",
                w.topo,
                w.cost,
                w.delay.normalized_delay,
                w.delay.method.token()
            ));
        }
        None => t.push_str("winner: none (no feasible configuration in the searched space)\n"),
    }
    if let Some(c) = &report.confirmation {
        t.push_str(&format!(
            "confirmation (DES): delay {} +- {} meets_target={} agrees={}\n",
            c.normalized_delay, c.half_width, c.meets_target, c.agrees_with_search
        ));
    }
    if let Some(d) = &report.degraded {
        t.push_str(&format!(
            "degraded (1 port failed): delay {} +- {} meets_target={}\n",
            d.normalized_delay, d.half_width, d.meets_target
        ));
    }
    t.push_str(&format!(
        "\nspace: {} configs, {} evaluated, {} pruned infeasible, {} dominated \
         (pruned fraction {:.3})\n",
        report.total_configs,
        report.evaluated,
        report.pruned_infeasible,
        report.pruned_dominated,
        report.pruned_fraction()
    ));
    // Cache hit/miss counts are deliberately absent here: the solve cache
    // is process-global, so they depend on which legs ran in the same
    // process — an artifact resumed after a crash must still be
    // byte-identical to one from an uninterrupted run.
    t.push_str(&format!(
        "evaluator: {} analytic, {} DES, {} guard-rejected\n",
        report.eval.analytic, report.eval.des, report.eval.guarded,
    ));
    t.push_str("\nPareto frontier (cost-ascending):\n");
    for c in &report.frontier {
        t.push_str(&format!(
            "  {} cost {} delay {} ({})\n",
            c.topo,
            c.cost,
            c.delay.normalized_delay,
            c.delay.method.token()
        ));
    }
    t
}

fn leg_name(p: u32) -> String {
    format!("p{p}")
}

/// Runs the sweep: one search leg per `--p`, checkpointed after each.
///
/// # Errors
///
/// [`HarnessError::Io`] when an artifact or the manifest cannot be
/// persisted, and [`HarnessError::Config`] when a leg's spec is invalid
/// (e.g. `2p` overflows).
pub fn run(cfg: &ProvisionConfig) -> Result<ProvisionSummary, HarnessError> {
    let start = Instant::now();
    let dir = cfg.out_dir.clone().unwrap_or_else(output::output_dir);
    std::fs::create_dir_all(&dir).map_err(|e| HarnessError::Io {
        op: "create dir",
        path: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let manifest_path = dir.join(MANIFEST_NAME);
    let mut manifest = Manifest::open(&manifest_path, &cfg.fingerprint(), cfg.resume);
    let mut legs = Vec::new();
    for &p in &cfg.processors {
        let name = leg_name(p);
        let artifact = format!("provision_{name}");
        if manifest.reusable(&dir, &name, &artifact).is_some() {
            legs.push(LegSummary {
                name,
                resumed: true,
                winner: None,
                evaluated: 0,
                total_configs: 0,
                pruned: 0,
                cache_hits: 0,
                cache_misses: 0,
                confirmed: None,
                agrees: None,
            });
            continue;
        }
        let spec = cfg.spec_for(p).map_err(HarnessError::Config)?;
        let leg_start = Instant::now();
        let report = search(&spec).map_err(HarnessError::Config)?;
        let text = leg_text(cfg, p, &report);
        let csv = frontier_csv(&report);
        output::persist_in(&dir, &artifact, &text, Some(&csv))?;
        let entry = ManifestEntry::ok(&name, &text, Some(&csv), leg_start.elapsed());
        manifest.record(entry, &manifest_path)?;
        legs.push(LegSummary {
            name,
            resumed: false,
            winner: report.winner.map(|w| w.topo.to_string()),
            evaluated: report.evaluated,
            total_configs: report.total_configs,
            pruned: report.pruned_infeasible + report.pruned_dominated,
            cache_hits: report.cache_hits,
            cache_misses: report.cache_misses,
            confirmed: report.confirmation.map(|c| c.meets_target),
            agrees: report.confirmation.map(|c| c.agrees_with_search),
        });
    }
    Ok(ProvisionSummary {
        legs,
        out_dir: dir,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// The `provisioning` section of `BENCH_perf.json`: a tiny bounded
/// analytic search whose counters describe the optimizer's behavior.
/// Informational — wall time varies by host; the counters do not.
#[must_use]
pub fn perf_section() -> (f64, SearchReport) {
    let mut spec = SearchSpec::new(16, 0.3, 0.1, 1.0).expect("static spec is valid");
    spec.families = vec![Family::Sbus];
    spec.max_resources_per_port = 32;
    spec.confirm = None;
    let start = Instant::now();
    let report = search(&spec).expect("static spec searches");
    (start.elapsed().as_secs_f64(), report)
}

/// Self-check used by tests and the smoke job: evaluating the winner
/// fresh reproduces the recorded delay exactly (analytic) or within CI
/// tolerance (DES).
#[must_use]
pub fn winner_reproduces(cfg: &ProvisionConfig, p: u32, report: &SearchReport) -> bool {
    let Some(w) = &report.winner else { return true };
    let Ok(profile) = TrafficProfile::reference(p, cfg.rho, cfg.ratio) else {
        return false;
    };
    let (quality, _) = cfg.quality();
    let mut ev = Evaluator::new(profile, quality);
    match ev.evaluate(&w.topo) {
        DelayOutcome::Value(v) => {
            let tol = v.half_width + w.delay.half_width + 1e-9 * w.delay.normalized_delay.abs();
            (v.normalized_delay - w.delay.normalized_delay).abs() <= tol.max(1e-12)
        }
        DelayOutcome::Saturated => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    fn tiny_cfg(dir: &Path) -> ProvisionConfig {
        ProvisionConfig {
            processors: vec![8, 16],
            target: 2.0,
            families: vec![Family::Sbus],
            max_r: 8,
            confirm: false,
            jobs: 1,
            out_dir: Some(dir.to_path_buf()),
            ..ProvisionConfig::default()
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsin-provision-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn args_parse_and_reject() {
        let cfg = ProvisionConfig::try_from_args(&args(&[
            "--p",
            "16,1024",
            "--rho",
            "0.25",
            "--families",
            "sbus,clx",
            "--max-r",
            "32",
            "--no-confirm",
            "--cost-resource",
            "4",
        ]))
        .expect("valid args");
        assert_eq!(cfg.processors, vec![16, 1024]);
        assert_eq!(cfg.families, vec![Family::Sbus, Family::Clustered]);
        assert!(!cfg.confirm);
        assert_eq!(cfg.cost.per_resource, 4.0);
        for bad in [
            &["--p", "zero"][..],
            &["--rho"][..],
            &["--bogus"][..],
            &["--families", "sbus,teleport"][..],
            &["--cost-resource", "-1"][..],
        ] {
            assert!(
                ProvisionConfig::try_from_args(&args(bad)).is_err(),
                "args {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_search_knobs_only() {
        let a = ProvisionConfig::default();
        let mut b = a.clone();
        b.jobs = 7;
        b.resume = true;
        assert_eq!(a.fingerprint(), b.fingerprint(), "jobs/resume excluded");
        let mut c = a.clone();
        c.target = 0.5;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn sweep_persists_resumes_and_reproduces() {
        let dir = temp_dir("sweep");
        let cfg = tiny_cfg(&dir);
        let s1 = run(&cfg).expect("sweep runs");
        assert_eq!(s1.resumed(), 0);
        assert!(s1.evaluated() > 0);
        let txt = std::fs::read_to_string(dir.join("provision_p16.txt")).expect("artifact");
        assert!(txt.contains("winner:"));
        let csv = std::fs::read_to_string(dir.join("provision_p16.csv")).expect("csv");
        assert!(csv.starts_with(FRONTIER_SCHEMA));
        // Resume skips both legs and leaves artifacts byte-identical.
        let mut cfg2 = cfg.clone();
        cfg2.resume = true;
        let s2 = run(&cfg2).expect("resume runs");
        assert_eq!(s2.resumed(), 2);
        assert_eq!(
            std::fs::read_to_string(dir.join("provision_p16.txt")).expect("artifact"),
            txt
        );
        // A different fingerprint invalidates the checkpoint.
        let mut cfg3 = cfg2.clone();
        cfg3.target *= 2.0;
        let s3 = run(&cfg3).expect("recompute runs");
        assert_eq!(s3.resumed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_recomputed_on_resume() {
        let dir = temp_dir("corrupt");
        let cfg = tiny_cfg(&dir);
        run(&cfg).expect("sweep runs");
        std::fs::write(dir.join("provision_p8.txt"), b"tampered").expect("tamper");
        let mut cfg2 = cfg.clone();
        cfg2.resume = true;
        let s = run(&cfg2).expect("resume runs");
        let p8 = s.legs.iter().find(|l| l.name == "p8").expect("leg");
        assert!(!p8.resumed, "digest mismatch must force recompute");
        let p16 = s.legs.iter().find(|l| l.name == "p16").expect("leg");
        assert!(p16.resumed, "intact leg stays checkpointed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn perf_section_counts_a_real_search() {
        let (secs, report) = perf_section();
        assert!(secs >= 0.0);
        assert!(report.evaluated > 0);
        assert!(report.winner.is_some());
        assert_eq!(report.eval.des, 0, "the perf probe must stay analytic");
    }
}
