//! What a child process does. Each job prints one record per line on
//! stdout for the parent: `ready` once set up, then `m <name> <value>`
//! metrics, `ok <attempted> <failed>` operation counts, `bad <message>`
//! correctness failures, `digest <line>` artifact digests and `rss <MB>`.

use crate::{broker, provision, suite, timed, wire, Args};
use rsin_core::{SimOptions, SystemConfig};
use std::time::Duration;

fn ready() {
    println!("ready");
}

fn metric(name: &str, value: f64) {
    println!("m {name} {value}");
}

fn ops(attempted: u64, failed: u64) {
    println!("ok {attempted} {failed}");
}

fn bad(msg: &str) {
    println!("bad {msg}");
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Runs child job `job` for `args`; returns false on an unknown job.
pub fn run(job: &str, args: &Args) -> bool {
    match job {
        "setup" | "run" => {
            let measure = job == "run";
            match args.workload.as_str() {
                "paper_suite" => paper_suite(args.seed, measure),
                "provision_search" => provision_search(measure),
                "wire_grants" => wire_grants(args.seed, args.seconds, measure),
                "broker_contended" => broker_contended(args.seed, args.seconds, measure),
                _ => return false,
            }
            if measure {
                if let Some(mb) = peak_rss_mb() {
                    println!("rss {mb}");
                }
            }
        }
        "probe-suite" => probe_suite(args.seed),
        "probe-des" => probe_des(args.seed),
        "probe-queueing" => probe_queueing(),
        "probe-provision" => probe_provision(),
        "probe-net" => probe_net(args.seed),
        "probe-broker" => probe_broker(args.seed),
        _ => return false,
    }
    true
}

/// Times every task and checks the artifacts against the record.
fn suite_tasks(seed: u64) -> Vec<suite::TaskRun> {
    let specs = rsin_bench::suite::task_specs();
    let q = suite::quality(seed);
    ready();
    let runs = suite::run_tasks(&specs, &q);
    let recorded = suite::recorded(seed);
    let wrong = suite::wrong(&runs, recorded.as_deref());
    for name in &wrong {
        bad(&format!(
            "paper_suite artifact {name} is wrong (seed {seed})"
        ));
    }
    ops(runs.len() as u64, wrong.len() as u64);
    println!("digest {}", suite::digest_line(seed, &runs));
    runs
}

fn paper_suite(seed: u64, measure: bool) {
    if !measure {
        let _ = (rsin_bench::suite::task_specs(), suite::quality(seed));
        ready();
        return;
    }
    let runs = suite_tasks(seed);
    for r in &runs {
        metric(&format!("task_s.{}", r.name), r.secs);
    }
}

/// Runs one leg and checks its frontier digest against the record.
fn checked_leg(leg: &provision::Leg, spec: &rsin_provision::SearchSpec) -> provision::LegRun {
    let run = provision::run_leg(spec);
    if provision::recorded(leg.name) != Some(run.csv_digest) {
        bad(&format!(
            "provision {} frontier digest {:016x} differs from the record",
            leg.name, run.csv_digest
        ));
    }
    run
}

fn provision_search(measure: bool) {
    let specs: Vec<_> = provision::LEGS
        .iter()
        .map(|l| provision::spec(l, true))
        .collect();
    ready();
    if !measure {
        return;
    }
    let mut failed = 0;
    for (leg, spec) in provision::LEGS.iter().zip(&specs) {
        let run = checked_leg(leg, spec);
        if !run.confirmed() {
            failed += 1;
            bad(&format!(
                "provision {}: no DES-confirmed winner meeting the target",
                leg.name
            ));
        }
        metric(&format!("search_s_{}", leg.name), run.secs);
    }
    ops(provision::LEGS.len() as u64, failed);
}

fn check_server(report: &rsin_broker::net::NetServerReport) {
    if report.violations != 0 || report.leaked != 0 {
        bad(&format!(
            "wire server: {} exclusivity violations, {} leaked grants",
            report.violations, report.leaked
        ));
    }
}

fn wire_series_metrics(tag: &str, s: &wire::Series) {
    metric(&format!("wire_p50_us_{tag}"), s.p50_us());
    let p99 = s.tail_us(true);
    metric(&format!("wire_p99_us_{tag}"), p99.value);
    metric(&format!("wire_p99_q_{tag}"), p99.q);
    metric(&format!("wire_samples_{tag}"), p99.n as f64);
    let tail = s.tail_us(false);
    metric(&format!("wire_tail_us_{tag}"), tail.value);
    metric(&format!("wire_tail_q_{tag}"), tail.q);
    metric(&format!("wire_lag_p99_us_{tag}"), s.lag_p99_us());
}

/// Rounds of interleaved light, heavy and saturated windows: a noisy
/// stretch of the run then spoils a minority of each series' windows, and
/// the medians drop it.
const ROUNDS: u32 = 6;
/// Pipeline depth per connection in the saturated windows.
const SATURATION_DEPTH: u32 = 16;
/// Capacity bisection: steps, and windows per probe.
const BISECT_STEPS: u32 = 6;
const PROBE_WINDOWS: u64 = 3;
const PROBE_SECS: f64 = 0.1;

fn wire_grants(seed: u64, seconds: u64, measure: bool) {
    let mut w = match wire::Wire::start() {
        Ok(w) => w,
        Err(e) => {
            bad(&format!("wire server failed to start: {e}"));
            return;
        }
    };
    ready();
    if !measure {
        check_server(&w.stop());
        return;
    }
    // A quarter of the budget light, a fifth heavy and a quarter saturated,
    // spread over the rounds; the capacity bisection takes the rest.
    let slot = seconds as f64 / 4.0 / f64::from(ROUNDS);
    let (mut light, mut heavy) = (wire::Series::default(), wire::Series::default());
    let mut saturated = Vec::new();
    for r in 0..u64::from(ROUNDS) {
        let round_seed = seed.wrapping_add(r << 32);
        light
            .windows
            .push(w.window(wire::LIGHT_RATE, slot, round_seed, false));
        heavy.windows.push(w.window(
            wire::HEAVY_RATE,
            slot * 0.8,
            round_seed ^ 0x4845_4156,
            false,
        ));
        saturated.push(w.saturated(slot, SATURATION_DEPTH));
    }
    let (capacity, probes) = w.capacity(BISECT_STEPS, PROBE_WINDOWS, PROBE_SECS, seed);
    if w.broken() {
        bad("wire: a connection failed");
    }
    check_server(&w.stop());
    wire_series_metrics("light", &light);
    wire_series_metrics("heavy", &heavy);
    metric("wire_saturated_gps", crate::stats::median(&saturated));
    metric("wire_capacity_gps", capacity);
    // Refusals in bisection probes above capacity are the probe's finding,
    // not failures; the fixed-rate series must be clean.
    let mut attempted = light.sent() + heavy.sent();
    let mut failed = light.rejects().total() + heavy.rejects().total();
    for p in probes.iter().filter(|p| p.meets_limit()) {
        attempted += p.sent();
        failed += p.rejects().total();
    }
    ops(attempted, failed);
}

/// Rounds of interleaved discipline windows, as for the wire.
const BROKER_ROUNDS: u32 = 5;

fn broker_contended(seed: u64, seconds: u64, measure: bool) {
    let brokers: Vec<_> = broker::DISCIPLINES
        .iter()
        .map(|d| broker::build(d))
        .collect();
    ready();
    if !measure {
        return;
    }
    let n = broker::DISCIPLINES.len();
    let window = Duration::from_secs_f64(seconds as f64 / (n as u32 * BROKER_ROUNDS) as f64);
    let mut gps = vec![Vec::new(); n];
    let mut pooled = crate::stats::Hist::default();
    let (mut attempted, mut failed) = (0, 0);
    for round in 0..u64::from(BROKER_ROUNDS) {
        for (i, (d, b)) in broker::DISCIPLINES.iter().zip(&brokers).enumerate() {
            let c = broker::contend(b.as_ref(), window, seed.wrapping_add(round << 32));
            check_contended(d, &c);
            gps[i].push(c.grants_per_sec());
            pooled.merge(&c.acquire);
            attempted += c.grants() + c.aborted;
            failed += c.aborted;
        }
    }
    for (d, g) in broker::DISCIPLINES.iter().zip(&gps) {
        metric(&format!("broker_gps_{d}"), crate::stats::median(g));
    }
    metric("acquire_p50_us", pooled.quantile(0.5) / 1e3);
    let tail = pooled.tail(crate::TAIL_CAP);
    metric("acquire_tail_us", tail.value / 1e3);
    metric("acquire_tail_q", tail.q);
    metric("acquire_samples", tail.n as f64);
    ops(attempted, failed);
}

fn check_contended(d: &str, c: &broker::Contended) {
    if c.double_grants != 0 || c.available_at_end != broker::RESOURCES {
        bad(&format!(
            "broker {d}: {} double grants, {} of {} resources free at the end",
            c.double_grants,
            c.available_at_end,
            broker::RESOURCES
        ));
    }
}

fn probe_suite(seed: u64) {
    for r in suite_tasks(seed) {
        metric(&format!("suite.task_s.{}", r.name), r.secs);
    }
}

fn probe_des(seed: u64) {
    let q = suite::quality(seed);
    let opts: SimOptions = q.sim_options();
    ready();
    let (mut untraced, mut traced) = (0u64, 0u64);
    let (mut points, mut mismatches) = (0, 0);
    for (c, cfg) in timed::CLASSES {
        let cfg: SystemConfig = cfg.parse().expect("probe config");
        let p = timed::des_probe(&cfg, &opts, q.reps as u64, seed);
        untraced += p.untraced_ns;
        traced += p.traced_ns;
        points += p.points;
        mismatches += p.mismatches;
        if p.mismatches > 0 {
            bad(&format!(
                "des {c}: {} traced reports differ from untraced",
                p.mismatches
            ));
        }
        let tasks = p.tasks.max(1) as f64;
        let n = &p.net;
        metric(
            &format!("des.{c}.tasks_per_s"),
            p.tasks as f64 / (p.untraced_ns as f64 / 1e9),
        );
        metric(
            &format!("des.{c}.resolver_ns_per_cycle"),
            n.resolver_ns as f64 / n.cycles.max(1) as f64,
        );
        metric(
            &format!("des.{c}.release_ns_per_task"),
            n.release_ns as f64 / tasks,
        );
        metric(
            &format!("des.{c}.draw_ns_per_draw"),
            p.draw_ns as f64 / p.draws.max(1) as f64,
        );
        let self_ns = p
            .traced_ns
            .saturating_sub(n.resolver_ns + n.release_ns + p.draw_ns);
        metric(
            &format!("des.{c}.engine_self_ns_per_task"),
            self_ns as f64 / tasks,
        );
        metric(&format!("des.{c}.cycles_per_task"), n.cycles as f64 / tasks);
        metric(
            &format!("des.{c}.grant_ratio"),
            n.grants as f64 / n.pending_submitted.max(1) as f64,
        );
        metric(
            &format!("des.{c}.pending_requests"),
            n.pending_submitted as f64,
        );
    }
    metric("des.untraced_s", untraced as f64 / 1e9);
    metric(
        "des.tracing_overhead",
        (traced as f64 - untraced as f64) / untraced as f64,
    );
    ops(points, mismatches);
}

fn probe_queueing() {
    ready();
    let (solves, secs) = provision::sbus_grid_solves();
    metric("queueing.sbus_solve_us", secs * 1e6 / solves.max(1) as f64);
    metric("queueing.sbus_solves", solves as f64);
    let mut no_convergence = 0;
    for (leg_p, procs, buses, r) in provision::XBAR_SHAPES {
        let (secs, converged) = provision::xbar_chain_solve(leg_p, procs, buses, r);
        metric(
            &format!("queueing.xbar_chain_solve_ms.{procs}x{buses}r{r}"),
            secs * 1e3,
        );
        no_convergence += u64::from(!converged);
    }
    metric("queueing.xbar_chain_no_convergence", no_convergence as f64);
    ops(solves + provision::XBAR_SHAPES.len() as u64, 0);
}

fn probe_provision() {
    ready();
    let mut failed = 0;
    for leg in &provision::LEGS {
        let run = checked_leg(leg, &provision::spec(leg, false));
        let r = &run.report;
        let p = format!("provision.{}", leg.name);
        metric(&format!("{p}.analytic_s"), run.secs);
        metric(&format!("{p}.evaluated"), r.evaluated as f64);
        metric(&format!("{p}.total_configs"), r.total_configs as f64);
        metric(&format!("{p}.pruned_fraction"), r.pruned_fraction());
        match provision::confirm_winner(leg, r) {
            Some((secs, meets)) => {
                metric(&format!("{p}.confirm_s"), secs);
                if !meets {
                    failed += 1;
                    bad(&format!(
                        "provision {}: DES does not confirm the winner",
                        leg.name
                    ));
                }
            }
            None => {
                failed += 1;
                bad(&format!("provision {}: no winner", leg.name));
            }
        }
    }
    ops(provision::LEGS.len() as u64, failed);
}

fn probe_net(seed: u64) {
    let mut w = match wire::Wire::start() {
        Ok(w) => w,
        Err(e) => {
            bad(&format!("wire server failed to start: {e}"));
            return;
        }
    };
    ready();
    let (enc, dec, round_trips) = wire::codec_costs(200_000, seed);
    if !round_trips {
        bad("net: the frame stream does not decode back to itself");
    }
    let Some(try_ns) = wire::try_acquire_cost(200_000) else {
        bad("net: try_acquire refused on an idle pool");
        return;
    };
    metric("net.encode_ns", enc);
    metric("net.decode_ns", dec);
    metric("net.try_acquire_ns", try_ns);
    // A grant round trip encodes and decodes a Request and a Grant and runs
    // one arbitration cycle in process; the rest is socket, reactor and
    // idle time.
    let in_process_us = (2.0 * enc + 2.0 * dec + try_ns) / 1e3;
    let (mut attempted, mut failed) = (0, 0);
    for (tag, rate) in [("light", wire::LIGHT_RATE), ("heavy", wire::HEAVY_RATE)] {
        let s = w.series(rate, 3, 0.5, seed ^ rate.to_bits(), false);
        metric(
            &format!("net.residual_us.{tag}"),
            s.p50_us() - in_process_us,
        );
        metric(&format!("net.generator_lag_p99_us.{tag}"), s.lag_p99_us());
        let rejects = s.rejects();
        for (reason, n) in rejects.by_reason() {
            metric(&format!("net.rejected_{reason}.{tag}"), n as f64);
        }
        attempted += s.sent();
        failed += rejects.total();
    }
    check_server(&w.stop());
    ops(attempted, failed);
}

fn probe_broker(seed: u64) {
    ready();
    let (mut attempted, mut failed) = (0, 0);
    for d in broker::DISCIPLINES {
        let b = broker::build(d);
        let cycle = broker::uncontended_cycle_ns(b.as_ref(), 200_000);
        let c = broker::contend(b.as_ref(), Duration::from_secs(1), seed);
        check_contended(d, &c);
        metric(
            &format!("broker.{d}.acquire_p50_us"),
            c.acquire.quantile(0.5) / 1e3,
        );
        metric(
            &format!("broker.{d}.acquire_p99_us"),
            c.acquire.quantile(0.99) / 1e3,
        );
        metric(&format!("broker.{d}.uncontended_cycle_ns"), cycle);
        metric(
            &format!("broker.{d}.min_worker_share"),
            c.min_worker_share(),
        );
        metric(&format!("broker.{d}.grants"), c.grants() as f64);
        attempted += c.grants() + c.aborted;
        failed += c.aborted;
    }
    ops(attempted, failed);
}
