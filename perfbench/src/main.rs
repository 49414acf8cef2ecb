//! End-to-end and per-layer benchmark of the RSIN workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper_suite`, `provision_search`, `wire_grants`,
//! `broker_contended` (see `README.md` beside this crate). The process
//! given those flags only orchestrates: every measurement runs in a fresh
//! child process of the same binary, so process-wide solver caches start
//! cold as they do for a user, and each child's peak RSS belongs to one
//! workload alone. Human-readable lines come first; the last line of
//! stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is nonzero when a correctness gate fails.
//!
//! With `--trace 0` the metrics are the end-to-end set, measured without
//! any timing decorators. With `--trace 1` a separate run probes every
//! layer from outside — timing the benchmark's own calls into each crate's
//! public functions — and reports the per-layer set.

mod broker;
mod jobs;
mod provision;
mod stats;
mod suite;
mod timed;
mod wire;

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload <paper_suite|provision_search|wire_grants|\
                     broker_contended> --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 4] = [
    "paper_suite",
    "provision_search",
    "wire_grants",
    "broker_contended",
];

/// The end-to-end tail is the highest percentile with ten samples beyond
/// it, up to p90: above that, on a 2-vCPU virtual machine with ~1% steal
/// time, it reads the host's preemption stalls. p99 is still printed.
pub const TAIL_CAP: f64 = 0.9;

/// A child still running after this is killed and the run fails: every
/// run must end within 180 s, and the longest child (the queueing probe)
/// takes about 70 s.
const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// Set-ups timed per run, at least (measurement children count too).
const MIN_SETUPS: usize = 15;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Set in child processes: the job to run.
    pub child: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or("--seconds needs a whole number of at least 1")?,
                );
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                });
            }
            "--child" => child = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        child,
    })
}

/// What one child process reported.
#[derive(Debug, Default)]
struct ChildOut {
    /// Spawn → `ready`, seconds.
    setup_s: Option<f64>,
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    bad: Vec<String>,
    digests: Vec<String>,
    rss_mb: Option<f64>,
    exited_ok: bool,
}

impl ChildOut {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs this binary as a child on `job` and collects its records.
fn spawn(job: &str, args: &Args) -> ChildOut {
    let mut out = ChildOut::default();
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            out.bad
                .push(format!("cannot locate the benchmark binary: {e}"));
            return out;
        }
    };
    let t0 = Instant::now();
    let child = Command::new(exe)
        .args(["--child", job, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            out.bad.push(format!("cannot start child {job}: {e}"));
            return out;
        }
    };
    // Lines are read on a helper thread, stamped as they arrive, so a child
    // that hangs can be killed at its deadline instead of blocking the run.
    let stdout = child.stdout.take().expect("child stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let deadline = t0 + CHILD_LIMIT;
    loop {
        let wait = deadline.saturating_duration_since(Instant::now());
        let (at, line) = match rx.recv_timeout(wait) {
            Ok(got) => got,
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                out.bad.push(format!(
                    "child {job} still running after {} s: killed",
                    CHILD_LIMIT.as_secs()
                ));
                break;
            }
        };
        let (tag, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match tag {
            "ready" => out.setup_s = Some(at.duration_since(t0).as_secs_f64()),
            "m" => {
                let parsed = rest
                    .rsplit_once(' ')
                    .and_then(|(n, v)| Some((n.to_string(), v.parse::<f64>().ok()?)));
                match parsed {
                    Some(m) => out.metrics.push(m),
                    None => out
                        .bad
                        .push(format!("child {job}: malformed metric {rest}")),
                }
            }
            "ok" => {
                let mut f = rest.split(' ').map(|v| v.parse::<u64>().unwrap_or(0));
                out.attempted += f.next().unwrap_or(0);
                out.failed += f.next().unwrap_or(0);
            }
            "bad" => out.bad.push(rest.to_string()),
            "digest" => out.digests.push(rest.to_string()),
            "rss" => out.rss_mb = rest.parse().ok(),
            _ => out.bad.push(format!("child {job}: unexpected line {line}")),
        }
    }
    match child.wait() {
        Ok(status) if status.success() => out.exited_ok = true,
        Ok(status) => out.bad.push(format!("child {job} exited with {status}")),
        Err(e) => out.bad.push(format!("child {job}: wait failed: {e}")),
    }
    if reader.join().is_err() {
        out.bad.push(format!("child {job}: output reader panicked"));
    }
    out
}

/// A run's verdict and numbers.
#[derive(Debug, Default)]
struct Outcome {
    bad: Vec<String>,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in report order.
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn absorb(&mut self, c: &ChildOut) {
        self.bad.extend(c.bad.iter().cloned());
        self.attempted += c.attempted;
        self.failed += c.failed;
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Every child's value of `name`; a missing value is a failure.
fn values(runs: &[ChildOut], name: &str, o: &mut Outcome) -> Vec<f64> {
    let v: Vec<f64> = runs.iter().filter_map(|c| c.get(name)).collect();
    if v.len() != runs.len() {
        o.bad.push(format!(
            "{name} missing from {} run(s)",
            runs.len() - v.len()
        ));
    }
    v
}

/// Median of `name` across runs (`NaN` — an invalid run — when absent).
fn med(runs: &[ChildOut], name: &str, o: &mut Outcome) -> f64 {
    median_or_nan(&values(runs, name, o))
}

fn say(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<34} {value:>14.4} {unit:<6} {note}");
}

/// The `--trace 0` run: measurement children until `--seconds` is spent,
/// extra set-up-only children, then the end-to-end set.
fn end_to_end(args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs = Vec::new();
    // Jobs of a few seconds repeat in fresh processes until the budget is
    // spent; the rate workloads spend it inside one child.
    let repeat = matches!(args.workload.as_str(), "paper_suite" | "provision_search");
    loop {
        runs.push(spawn("run", args));
        let enough = runs.len() >= 2 && start.elapsed() >= budget;
        if !repeat || enough || !runs.last().is_some_and(|r| r.exited_ok) {
            break;
        }
    }
    let mut o = Outcome::default();
    for r in &runs {
        o.absorb(r);
    }
    let mut setups: Vec<f64> = runs.iter().filter_map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS && o.bad.is_empty() {
        let s = spawn("setup", args);
        o.bad.extend(s.bad.iter().cloned());
        setups.extend(s.setup_s);
        if s.setup_s.is_none() {
            break;
        }
    }
    let setup_s = median_or_nan(&setups);
    let rss = runs
        .iter()
        .filter_map(|r| r.rss_mb)
        .fold(f64::NAN, f64::max);

    println!(
        "{} (seed {}, {} measured process(es))",
        args.workload,
        args.seed,
        runs.len()
    );
    let h = match args.workload.as_str() {
        "paper_suite" => paper_suite(args, &runs, &mut o),
        "provision_search" => provision_search(&runs, &mut o),
        "wire_grants" => wire_grants(&runs, &mut o),
        _ => broker_contended(&runs, &mut o),
    };
    let fail_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    say(
        "fail_ratio",
        fail_ratio,
        "ratio",
        &format!("{} of {} failed or refused", o.failed, o.attempted),
    );
    say(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {} set-ups", setups.len()),
    );
    say("peak_rss_mb", rss, "MB", "VmHWM, largest measured process");
    say("work_s", h.work_s, "s", "per unit of work");
    say("p50_us", h.p50_us, "us", h.per_op);
    say("tail_us", h.tail.value, "us", &h.tail.label());
    o.push("setup_s", setup_s, "s");
    o.push("peak_rss_mb", rss, "MB");
    o.push("work_s", h.work_s, "s");
    o.push("p50_us", h.p50_us, "us");
    o.push("tail_us", h.tail.value, "us");
    o
}

/// A workload's share of the end-to-end set: seconds per unit of work and
/// the latency of one operation.
struct Headline {
    work_s: f64,
    p50_us: f64,
    tail: stats::Tail,
    per_op: &'static str,
}

fn paper_suite(args: &Args, runs: &[ChildOut], o: &mut Outcome) -> Headline {
    let digests: Vec<&String> = runs.iter().flat_map(|r| &r.digests).collect();
    if digests.windows(2).any(|w| w[0] != w[1]) {
        o.bad
            .push("paper_suite artifacts differ between identical runs".into());
    }
    if suite::recorded(args.seed).is_none() {
        if let Some(d) = digests.first() {
            println!("  artifact digests (seed not recorded): {d}");
        }
    }
    let specs = rsin_bench::suite::task_specs();
    // Each task's median over the suites, so a noisy stretch of the run
    // cannot decide any one task's time; the suite is their sum.
    let tasks: Vec<f64> = specs
        .iter()
        .map(|spec| med(runs, &format!("task_s.{}", spec.name), o))
        .collect();
    let work_s: f64 = tasks.iter().sum();
    let note = format!("sum of per-task medians over {} suites", runs.len());
    say("suite_s", work_s, "s", &note);
    let suites: Vec<f64> = runs
        .iter()
        .map(|r| {
            specs
                .iter()
                .filter_map(|spec| r.get(&format!("task_s.{}", spec.name)))
                .sum()
        })
        .collect();
    Headline {
        work_s,
        p50_us: median_or_nan(&suites) * 1e6,
        tail: tail_or_nan(&tasks),
        per_op: "one suite (median); tail: slowest task",
    }
}

fn provision_search(runs: &[ChildOut], o: &mut Outcome) -> Headline {
    let names: Vec<String> = provision::LEGS
        .iter()
        .map(|leg| format!("search_s_{}", leg.name))
        .collect();
    let legs: Vec<f64> = names
        .iter()
        .map(|name| {
            let m = med(runs, name, o);
            say(name, m, "s", &format!("median of {}", runs.len()));
            m
        })
        .collect();
    println!("  search_s_p16: not run (a single crossbar chain solve in it takes ~63 s)");
    let rounds: Vec<f64> = runs
        .iter()
        .map(|r| names.iter().filter_map(|n| r.get(n)).sum())
        .collect();
    Headline {
        work_s: legs.iter().sum(),
        p50_us: median_or_nan(&rounds) * 1e6,
        tail: tail_or_nan(&legs),
        per_op: "one search round (median); tail: slowest leg",
    }
}

fn wire_grants(runs: &[ChildOut], o: &mut Outcome) -> Headline {
    for tag in ["light", "heavy"] {
        let n = med(runs, &format!("wire_samples_{tag}"), o);
        let q = med(runs, &format!("wire_p99_q_{tag}"), o);
        let p50 = med(runs, &format!("wire_p50_us_{tag}"), o);
        say(&format!("wire_p50_us_{tag}"), p50, "us", &format!("n={n}"));
        let p99 = med(runs, &format!("wire_p99_us_{tag}"), o);
        let note = format!("p{} of n={n}", q * 100.0);
        say(&format!("wire_p99_us_{tag}"), p99, "us", &note);
        let lag = med(runs, &format!("wire_lag_p99_us_{tag}"), o);
        say(&format!("generator_lag_p99_us_{tag}"), lag, "us", "");
    }
    let cap = med(runs, "wire_capacity_gps", o);
    let note = "p90 <= 1 ms, nothing refused, backlog bounded";
    say("wire_capacity_gps", cap, "1/s", note);
    let sat = med(runs, "wire_saturated_gps", o);
    let note = "closed loop, 16 in flight per connection";
    say("wire_saturated_gps", sat, "1/s", note);
    Headline {
        work_s: 1e4 / sat,
        p50_us: med(runs, "wire_p50_us_light", o),
        tail: stats::Tail {
            q: med(runs, "wire_tail_q_light", o),
            value: med(runs, "wire_tail_us_light", o),
            n: med(runs, "wire_samples_light", o) as u64,
        },
        per_op: "one wire grant at the light rate",
    }
}

fn broker_contended(runs: &[ChildOut], o: &mut Outcome) -> Headline {
    // Grants of all three disciplines over their equal windows.
    let mut mean_gps = 0.0;
    for d in broker::DISCIPLINES {
        let gps = med(runs, &format!("broker_gps_{d}"), o);
        say(
            &format!("broker_gps_{d}"),
            gps,
            "1/s",
            "2 workers, 1 resource",
        );
        mean_gps += gps / broker::DISCIPLINES.len() as f64;
    }
    Headline {
        work_s: 1e4 / mean_gps,
        p50_us: med(runs, "acquire_p50_us", o),
        tail: stats::Tail {
            q: med(runs, "acquire_tail_q", o),
            value: med(runs, "acquire_tail_us", o),
            n: med(runs, "acquire_samples", o) as u64,
        },
        per_op: "one blocking acquire, all disciplines",
    }
}

fn median_or_nan(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        stats::median(v)
    }
}

fn tail_or_nan(v: &[f64]) -> stats::Tail {
    if v.is_empty() {
        return stats::Tail {
            q: 1.0,
            value: f64::NAN,
            n: 0,
        };
    }
    let mut t = stats::sample_tail(v, TAIL_CAP);
    t.value *= 1e6; // seconds → µs
    t
}

/// The per-layer metrics a traced run reports, with units, in order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for spec in rsin_bench::suite::task_specs() {
        v.push((format!("suite.task_s.{}", spec.name), "s"));
    }
    for (c, _) in timed::CLASSES {
        for (m, unit) in [
            ("tasks_per_s", "1/s"),
            ("resolver_ns_per_cycle", "ns"),
            ("release_ns_per_task", "ns"),
            ("draw_ns_per_draw", "ns"),
            ("engine_self_ns_per_task", "ns"),
            ("cycles_per_task", "count"),
            ("grant_ratio", "ratio"),
            ("pending_requests", "count"),
        ] {
            v.push((format!("des.{c}.{m}"), unit));
        }
    }
    v.push(("des.untraced_s".into(), "s"));
    v.push(("des.tracing_overhead".into(), "ratio"));
    v.push(("queueing.sbus_solve_us".into(), "us"));
    v.push(("queueing.sbus_solves".into(), "count"));
    for (_, procs, buses, r) in provision::XBAR_SHAPES {
        v.push((
            format!("queueing.xbar_chain_solve_ms.{procs}x{buses}r{r}"),
            "ms",
        ));
    }
    v.push(("queueing.xbar_chain_no_convergence".into(), "count"));
    for leg in provision::LEGS {
        for (m, unit) in [
            ("analytic_s", "s"),
            ("evaluated", "count"),
            ("total_configs", "count"),
            ("pruned_fraction", "ratio"),
            ("confirm_s", "s"),
        ] {
            v.push((format!("provision.{}.{m}", leg.name), unit));
        }
    }
    v.push(("net.encode_ns".into(), "ns"));
    v.push(("net.decode_ns".into(), "ns"));
    v.push(("net.try_acquire_ns".into(), "ns"));
    for tag in ["light", "heavy"] {
        v.push((format!("net.residual_us.{tag}"), "us"));
        v.push((format!("net.generator_lag_p99_us.{tag}"), "us"));
        for (reason, _) in wire::Rejects::default().by_reason() {
            v.push((format!("net.rejected_{reason}.{tag}"), "count"));
        }
    }
    for d in broker::DISCIPLINES {
        for (m, unit) in [
            ("acquire_p50_us", "us"),
            ("acquire_p99_us", "us"),
            ("uncontended_cycle_ns", "ns"),
            ("min_worker_share", "ratio"),
            ("grants", "count"),
        ] {
            v.push((format!("broker.{d}.{m}"), unit));
        }
    }
    v
}

/// Layer probes, one fresh process each.
const PROBES: [&str; 6] = [
    "probe-suite",
    "probe-des",
    "probe-provision",
    "probe-net",
    "probe-broker",
    "probe-queueing",
];

/// The `--trace 1` run: every layer probe, then the per-layer set.
fn traced(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut got: Vec<(String, f64)> = Vec::new();
    for probe in PROBES {
        let c = spawn(probe, args);
        o.absorb(&c);
        got.extend(c.metrics);
    }
    println!("{} per-layer probes (seed {})", args.workload, args.seed);
    for (name, unit) in per_layer() {
        match got.iter().find(|(n, _)| *n == name) {
            Some(&(_, value)) => {
                say(&name, value, unit, "");
                o.push(&name, value, unit);
            }
            None => o
                .bad
                .push(format!("per-layer metric {name} was not reported")),
        }
    }
    o
}

/// The last stdout line: the machine-readable result.
fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.bad.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(job) = &args.child {
        if !jobs::run(job, &args) {
            eprintln!("error: unknown child job {job}");
            std::process::exit(2);
        }
        return;
    }
    let mut o = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for (name, value, _) in &o.metrics {
        if !value.is_finite() {
            o.bad.push(format!("{name} is not a finite number"));
        }
    }
    o.metrics.retain(|(_, v, _)| v.is_finite());
    for b in &o.bad {
        eprintln!("FAILED: {b}");
    }
    println!("{}", json(&o));
    if !o.bad.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload wire_grants --seed 7 --seconds 10 --trace 1",
        ))
        .expect("ok");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wire_grants", 7, 10, true)
        );
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse(&argv("--workload paper_suite --seconds 1")).is_err());
        assert!(parse(&argv("--workload paper_suite --seed 1 --seconds 0")).is_err());
        assert!(parse(&argv(
            "--workload paper_suite --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let v = per_layer();
        assert!(v.len() <= 128, "{}", v.len());
        let mut names: Vec<&String> = v.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), v.len());
        assert!(names.iter().all(|n| n.len() <= 64));
    }

    /// The benchmark's declared per-layer table must be what a traced run
    /// reports, name for name and unit for unit.
    #[test]
    fn benchmark_json_declares_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared: Vec<(String, String)> = text
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section")
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                    rest[..rest.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.push("setup_s", 0.5, "s");
        o.attempted = 3;
        let line = json(&o);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
