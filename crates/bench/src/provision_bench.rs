//! The provisioning sweep behind the `provision` binary: one search leg
//! per processor count, with digest-validated resumable checkpoints.
//!
//! Each leg runs [`rsin_provision::search()`] at one `p` and persists two
//! deterministic artifacts — `provision_p<p>.txt` (the report) and
//! `provision_p<p>.csv` (the Pareto frontier, stable schema
//! [`FRONTIER_SCHEMA`]) — atomically, then checkpoints
//! `provision_manifest.json`. A killed sweep restarted with `--resume`
//! skips every leg whose manifest digests still match the files on disk
//! and recomputes the rest; final artifacts are byte-identical to an
//! uninterrupted run for any `--jobs` value (wall-clock timings live only
//! in the stderr summary, never in artifacts).

use crate::flags;
use crate::manifest::{Manifest, ManifestEntry};
use crate::output;
use crate::RunQuality;
use rsin_core::{ConfigError, HarnessError};
use rsin_provision::{
    search, CostModel, DelayOutcome, EvalQuality, Evaluator, Family, SearchReport, SearchSpec,
    TrafficProfile,
};
use std::path::Path;
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
            cost: CostModel::default(),
        }
    }
}

impl ProvisionConfig {
    /// Parses the binary's arguments.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending flag and value.
    pub fn try_from_args(args: &[String]) -> Result<Self, ConfigError> {
        flags::reject_unknown(
            args,
            &[
                "--p",
                "--rho",
                "--ratio",
                "--target",
                "--families",
                "--max-r",
                "--jobs",
                "--cost-resource",
                "--cost-switch-point",
                "--cost-bus-tap",
            ],
            &["--no-confirm", "--fault-recheck", "--full", "--resume"],
            "a provision flag (--p, --rho, --ratio, --target, --families, --max-r, --jobs, \
             --cost-*, --no-confirm, --fault-recheck, --full, --resume)",
        )?;
        let mut cfg = ProvisionConfig::default();
        let list = "a non-empty comma-separated list";
        if let Some(p) = flags::parsed_list(args, "--p", list, |v| v.parse().ok())? {
            cfg.processors = p;
        }
        if let Some(f) = flags::parsed_list(args, "--families", list, |v| v.parse().ok())? {
            cfg.families = f;
        }
        for (flag, slot) in [
            ("--rho", &mut cfg.rho),
            ("--ratio", &mut cfg.ratio),
            ("--target", &mut cfg.target),
            ("--cost-resource", &mut cfg.cost.per_resource),
            ("--cost-switch-point", &mut cfg.cost.per_switch_point),
            ("--cost-bus-tap", &mut cfg.cost.per_bus_tap),
        ] {
            if let Some(v) = flags::parsed(args, flag, "a number", |v| v.parse().ok())? {
                *slot = v;
            }
        }
        if let Some(r) = flags::parsed(args, "--max-r", "a number", |v| v.parse().ok())? {
            cfg.max_r = r;
        }
        let quality = RunQuality::try_from_args(args)?;
        cfg.full = quality.fingerprint() == RunQuality::full().fingerprint();
        cfg.jobs = quality.jobs;
        cfg.confirm = !flags::switch(args, "--no-confirm");
        cfg.fault_recheck = flags::switch(args, "--fault-recheck");
        cfg.resume = flags::switch(args, "--resume");
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
    /// any different search-relevant knob recomputes everything. `--jobs`
    /// and `--resume` are deliberately excluded — they never change
    /// results.
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

/// Runs the sweep into `dir`: one search leg per `--p`, checkpointed
/// after each.
///
/// # Errors
///
/// [`HarnessError::Io`] when `dir`, an artifact or the manifest cannot be
/// written, and [`HarnessError::Config`] when a leg's spec is invalid
/// (e.g. `2p` overflows).
pub fn run(cfg: &ProvisionConfig, dir: &Path) -> Result<ProvisionSummary, HarnessError> {
    let start = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
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
        if manifest.reusable(dir, &name, &artifact).is_some() {
            legs.push(LegSummary {
                name,
                resumed: true,
                winner: None,
                evaluated: 0,
                total_configs: 0,
                pruned: 0,
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
        output::persist_in(dir, &artifact, &text, Some(&csv))?;
        let entry = ManifestEntry::ok(&name, &text, Some(&csv), leg_start.elapsed());
        manifest.record(entry, &manifest_path)?;
        legs.push(LegSummary {
            name,
            resumed: false,
            winner: report.winner.map(|w| w.topo.to_string()),
            evaluated: report.evaluated,
            total_configs: report.total_configs,
            pruned: report.pruned_infeasible + report.pruned_dominated,
            confirmed: report.confirmation.map(|c| c.meets_target),
            agrees: report.confirmation.map(|c| c.agrees_with_search),
        });
    }
    Ok(ProvisionSummary {
        legs,
        wall_seconds: start.elapsed().as_secs_f64(),
    })
}

/// Self-check used by tests and the smoke job: evaluating the winner
/// fresh against the configured target reproduces the recorded delay
/// exactly (analytic) or within CI tolerance (DES). A winner that now
/// misses the target, or saturates, does not reproduce.
#[must_use]
pub fn winner_reproduces(cfg: &ProvisionConfig, p: u32, report: &SearchReport) -> bool {
    let Some(w) = &report.winner else { return true };
    let Ok(profile) = TrafficProfile::reference(p, cfg.rho, cfg.ratio) else {
        return false;
    };
    let (quality, _) = cfg.quality();
    let mut ev = Evaluator::new(profile, quality);
    match ev.evaluate(&w.topo, cfg.target) {
        DelayOutcome::Value(v) => {
            let tol = v.half_width + w.delay.half_width + 1e-9 * w.delay.normalized_delay.abs();
            (v.normalized_delay - w.delay.normalized_delay).abs() <= tol.max(1e-12)
        }
        DelayOutcome::Saturated | DelayOutcome::Exceeds { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_core::NetworkKind;
    use rsin_provision::{classic, Candidate, EvalCounters};
    use std::path::PathBuf;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    fn tiny_cfg() -> ProvisionConfig {
        ProvisionConfig {
            processors: vec![8, 16],
            target: 2.0,
            families: vec![Family::Sbus],
            max_r: 8,
            confirm: false,
            jobs: 1,
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
        let eq = ProvisionConfig::try_from_args(&args(&["--jobs=2", "--p=8", "--rho=0.25"]))
            .expect("--flag=v spelling");
        assert_eq!((eq.jobs, eq.processors, eq.rho), (2, vec![8], 0.25));
        let full = ProvisionConfig::try_from_args(&args(&["--full"])).expect("valid");
        assert!(full.full && !eq.full, "--full selects the full preset");
        for bad in [
            &["--p", "zero"][..],
            &["--rho"][..],
            &["--bogus"][..],
            &["--jobs=zero"][..],
            &["--jobs", "0"][..],
            &["--max-r", "8", "stray"][..],
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
        let cfg = tiny_cfg();
        let s1 = run(&cfg, &dir).expect("sweep runs");
        assert_eq!(s1.resumed(), 0);
        assert!(s1.evaluated() > 0);
        let txt = std::fs::read_to_string(dir.join("provision_p16.txt")).expect("artifact");
        assert!(txt.contains("winner:"));
        let csv = std::fs::read_to_string(dir.join("provision_p16.csv")).expect("csv");
        assert!(csv.starts_with(FRONTIER_SCHEMA));
        // Resume skips both legs and leaves artifacts byte-identical.
        let mut cfg2 = cfg.clone();
        cfg2.resume = true;
        let s2 = run(&cfg2, &dir).expect("resume runs");
        assert_eq!(s2.resumed(), 2);
        assert_eq!(
            std::fs::read_to_string(dir.join("provision_p16.txt")).expect("artifact"),
            txt
        );
        // A different fingerprint invalidates the checkpoint.
        let mut cfg3 = cfg2.clone();
        cfg3.target *= 2.0;
        let s3 = run(&cfg3, &dir).expect("recompute runs");
        assert_eq!(s3.resumed(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_recomputed_on_resume() {
        let dir = temp_dir("corrupt");
        let cfg = tiny_cfg();
        run(&cfg, &dir).expect("sweep runs");
        std::fs::write(dir.join("provision_p8.txt"), b"tampered").expect("tamper");
        let mut cfg2 = cfg.clone();
        cfg2.resume = true;
        let s = run(&cfg2, &dir).expect("resume runs");
        let p8 = s.legs.iter().find(|l| l.name == "p8").expect("leg");
        assert!(!p8.resumed, "digest mismatch must force recompute");
        let p16 = s.legs.iter().find(|l| l.name == "p16").expect("leg");
        assert!(p16.resumed, "intact leg stays checkpointed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The analytic p = 8 SBUS search: its winner, evaluated afresh,
    /// reproduces the recorded delay exactly.
    #[test]
    fn analytic_winner_reproduces() {
        let cfg = ProvisionConfig {
            processors: vec![8],
            families: vec![Family::Sbus],
            confirm: false,
            jobs: 1,
            ..ProvisionConfig::default()
        };
        let report = search(&cfg.spec_for(8).expect("valid spec")).expect("search runs");
        let winner = report.winner.as_ref().expect("a feasible SBUS system");
        assert_eq!(winner.topo.to_string(), "8/1x8x1 SBUS/6");
        assert!(winner_reproduces(&cfg, 8, &report));
    }

    /// A crossbar winner reproduces under the target it was found at, and
    /// not under one its chain proves missed.
    #[test]
    fn winner_missing_the_target_does_not_reproduce() {
        let mut cfg = ProvisionConfig {
            jobs: 1,
            ..ProvisionConfig::default()
        };
        let topo = classic(8, 1, NetworkKind::Crossbar, 8, 1, 6).expect("valid");
        let profile = TrafficProfile::reference(8, cfg.rho, cfg.ratio).expect("valid");
        let mut ev = Evaluator::new(profile, cfg.quality().0);
        let DelayOutcome::Value(delay) = ev.evaluate(&topo, cfg.target) else {
            panic!("{topo} meets the default target");
        };
        let winner = Candidate {
            topo,
            cost: 56.0,
            delay,
        };
        let report = SearchReport {
            processors: 8,
            target: cfg.target,
            frontier: vec![winner],
            winner: Some(winner),
            confirmation: None,
            degraded: None,
            total_configs: 1,
            evaluated: 1,
            pruned_infeasible: 0,
            pruned_dominated: 0,
            pruned_examples: Vec::new(),
            eval: EvalCounters::default(),
        };
        assert!(winner_reproduces(&cfg, 8, &report));
        cfg.target = delay.normalized_delay / 2.0;
        assert!(matches!(
            ev.evaluate(&topo, cfg.target),
            DelayOutcome::Exceeds { .. }
        ));
        assert!(!winner_reproduces(&cfg, 8, &report));
    }
}
