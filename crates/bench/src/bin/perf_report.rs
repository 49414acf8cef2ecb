//! The tracked performance baseline: times the figure/table suite
//! sequentially (`--jobs 1`) and in parallel, measures the hot-path
//! kernels (including the runtime brokers' uncontended grant cycles) and
//! the brokers' saturated multi-threaded throughput, and writes
//! `BENCH_perf.json` at the repository root.
//!
//! `--quick` (the default preset) keeps the run in CI territory; `--full`
//! times the publication preset; `--jobs N` pins the parallel worker count
//! (default: all cores, or `RSIN_JOBS`). On a single-core host the parallel
//! leg is skipped and reported as `null` — a 1-worker "parallel" run only
//! measures scheduling overhead, not speedup. Timings vary run to run —
//! the simulation *results* never do.
//!
//! `--check` compares the freshly measured kernels against the committed
//! `BENCH_perf.json` before overwriting it and exits nonzero if any kernel
//! is more than [`REGRESSION_TOLERANCE`]× slower than the baseline, so CI
//! catches hot-path regressions. Apparent regressions are re-measured up
//! to [`CHECK_RETRIES`] times (keeping each kernel's floor) before the
//! gate fails, so a burst of runner contention doesn't flag a phantom
//! slowdown. Kernels new to this build are recorded, not failed; a suite
//! leg that either run skipped (the parallel leg on a single-core host,
//! persisted as `null` with a `"skipped_reason"`) is skipped by the check.
//! The comparison logic lives in `rsin_bench::perfgate`.

use rsin_bench::broker_bench::{
    saturated_grants_per_sec, BrokerBenchConfig, Discipline, Layout, DISCIPLINES,
};
use rsin_bench::figures::workload_at;
use rsin_bench::json::{self, Value};
use rsin_bench::microbench::measure_ns_floor;
use rsin_bench::netbench;
use rsin_bench::perfgate::{
    self, KernelCheck, LegStatus, ScalingPoint, ScalingStatus, SuiteTimings, Verdict,
    REGRESSION_TOLERANCE,
};
use rsin_bench::provision_bench;
use rsin_bench::suite::run_suite;
use rsin_bench::RunQuality;
use rsin_bitslice::{or_pairs_compress, rotating_grant, set_bit, swap_or, tile_double};
use rsin_broker::net::NetLoadConfig;
use rsin_broker::{
    Broker, ChaosOptions, ChaosPlan, ClientChaos, ClientEvent, OmegaBroker, RunControl, SbusBroker,
    XbarBroker, XbarPolicy,
};
use rsin_core::{simulate, SimOptions, SystemConfig};
use rsin_des::{Calendar, SimRng, SimTime};
use rsin_omega::{Admission, OmegaState};
use rsin_queueing::{traffic, SharedBusChain, SharedBusParams};
use rsin_xbar::{BitFabric, CrossbarFabric};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn time_suite(q: &RunQuality) -> f64 {
    let start = Instant::now();
    black_box(run_suite(q).len());
    start.elapsed().as_secs_f64()
}

/// The stable rho grid for the analytic-solver kernel: every point of the
/// figure grid at which the 2-processor/4-resource bus is stable.
fn sbus_kernel_grid() -> Vec<SharedBusParams> {
    let (mu_n, mu_s) = (1.0, 0.1);
    std::iter::once(0.05)
        .chain((1..=9).map(|i| f64::from(i) / 10.0))
        .map(|rho| SharedBusParams {
            processors: 2,
            resources: 4,
            lambda: traffic::lambda_for_intensity(16, 32, rho, mu_n, mu_s),
            mu_n,
            mu_s,
        })
        .filter(|&p| SharedBusChain::new(p).is_ok())
        .collect()
}

fn kernels() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let mut rng = SimRng::new(1);
    out.push((
        "calendar_schedule_pop_1k",
        measure_ns_floor(|| {
            let mut cal = Calendar::new();
            for i in 0..1_000u32 {
                cal.schedule(SimTime::new(rng.uniform() * 100.0 + 100.0), i);
            }
            let mut count = 0;
            while cal.pop().is_some() {
                count += 1;
            }
            black_box(count)
        }),
    ));

    let mut rng = SimRng::new(2);
    out.push((
        "calendar_cancel_heavy_1k",
        measure_ns_floor(|| {
            // The timer-cancellation pattern the simulator leans on: every
            // other event is revoked by handle before the queue drains.
            let mut cal = Calendar::new();
            let handles: Vec<_> = (0..1_000u32)
                .map(|i| cal.schedule(SimTime::new(rng.uniform() * 100.0 + 100.0), i))
                .collect();
            for h in handles.iter().step_by(2) {
                cal.cancel(*h);
            }
            let mut count = 0;
            while cal.pop().is_some() {
                count += 1;
            }
            black_box(count)
        }),
    ));

    let everyone: Vec<usize> = (0..16).collect();
    out.push((
        "omega_resolve_all_requesting_16",
        measure_ns_floor(|| {
            let mut net = OmegaState::new(16, 1).expect("power of two");
            net.resolve(&everyone, Admission::Simultaneous)
        }),
    ));

    let requests = vec![true; 16];
    let available = vec![true; 32];
    out.push((
        "xbar_request_cycle_16x32",
        measure_ns_floor(|| {
            let mut fabric = CrossbarFabric::new(16, 32);
            fabric.request_cycle(&requests, &available)
        }),
    ));

    let grid = sbus_kernel_grid();
    out.push((
        "sbus_rho_grid_cold_2x4",
        measure_ns_floor(|| {
            let mut acc = 0.0;
            for &p in &grid {
                let chain = SharedBusChain::new(p).expect("grid is stable");
                acc += chain.solve().expect("solves").normalized_delay;
            }
            black_box(acc)
        }),
    ));
    // Uncontended acquire → end_transmission → release cycles of the
    // runtime brokers: the single-thread fast path every loaded run pays on
    // top of the queueing the models predict. ns/iter here is the inverse
    // of the broker's peak grant throughput, so the `--check` gate doubles
    // as a throughput-regression gate.
    let ctl = RunControl::new();
    let sbus = SbusBroker::new(2, 2);
    out.push((
        "broker_sbus_uncontended_cycle",
        measure_ns_floor(|| {
            let g = sbus.acquire(0, &ctl).expect("uncontended");
            sbus.end_transmission(0, g);
            sbus.release(0, g);
            black_box(g.resource)
        }),
    ));
    let xbar = XbarBroker::new(2, 2, XbarPolicy::TokenRotation);
    out.push((
        "broker_xbar_uncontended_cycle",
        measure_ns_floor(|| {
            let g = xbar.acquire(0, &ctl).expect("uncontended");
            xbar.end_transmission(0, g);
            xbar.release(0, g);
            black_box(g.resource)
        }),
    ));
    let omega = OmegaBroker::new(2, 2);
    out.push((
        "broker_omega_uncontended_cycle",
        measure_ns_floor(|| {
            let g = omega.acquire(0, &ctl).expect("uncontended");
            omega.end_transmission(0, g);
            omega.release(0, g);
            black_box(g.resource)
        }),
    ));

    let cfg: SystemConfig = "16/1x16x16 XBAR/2".parse().expect("valid");
    let opts = SimOptions {
        warmup_tasks: 200,
        measured_tasks: 3_000,
    };
    let w = workload_at(0.5, 0.1);
    out.push((
        "simulate_3k_tasks_xbar_1x16x16_r2",
        measure_ns_floor(|| {
            let mut net = rsin_xbar::CrossbarNetwork::from_config(
                &cfg,
                rsin_xbar::CrossbarPolicy::FixedPriority,
            )
            .expect("xbar");
            let mut rng = SimRng::new(1);
            simulate(&mut net, &w, &opts, &mut rng).mean_delay()
        }),
    ));

    // Raw bit-sliced primitives (rsin-bitslice): the per-word cost of the
    // lane machinery the default resolvers are compiled onto. Absent from
    // older baselines — `--check` records them without failing.
    let mut req = vec![0u64; 64];
    for lane in (0..4096).step_by(3) {
        set_bit(&mut req, lane);
    }
    out.push((
        "bitslice_rotating_grant_4096",
        measure_ns_floor(move || {
            // A full rotation of the token across a 4096-lane request
            // vector: 64 parallel-prefix grants.
            let mut token = 0usize;
            let mut acc = 0usize;
            for _ in 0..64 {
                let g = rotating_grant(&req, token).expect("nonempty");
                acc += g;
                token = g + 1;
            }
            black_box(acc)
        }),
    ));

    let mut wave = vec![0u64; 4];
    for lane in (0..256).step_by(5) {
        set_bit(&mut wave, lane);
    }
    let (mut t_box, mut t_in, mut t_out) = (Vec::new(), Vec::new(), Vec::new());
    out.push((
        "bitslice_omega_stage_shuffle_256",
        measure_ns_floor(move || {
            // One Omega stage (box compress + inverse-shuffle tile) plus one
            // Cube stage (butterfly OR) over 256 wires.
            or_pairs_compress(&wave, 128, &mut t_box);
            tile_double(&t_box, 128, &mut t_in);
            swap_or(&t_in, 32, &mut t_out);
            black_box(t_out[0])
        }),
    ));

    let requests = vec![true; 64];
    let available = vec![true; 64];
    out.push((
        "bitslice_xbar_wave_64x64",
        measure_ns_floor(move || {
            let mut fabric = BitFabric::new(64, 64);
            fabric.request_cycle(&requests, &available)
        }),
    ));

    out
}

/// Window of every saturated broker sweep.
const WINDOW: Duration = Duration::from_millis(120);

/// Workers and resources of the flat, sharding-overhead and resilience
/// sweeps.
const FLAT: (usize, usize) = (4, 2);

/// Workers and resources of the sharded scaling curve.
const SCALING: (usize, usize) = (8, 4);

/// Grants/sec of discipline `d` over `(workers, resources)` in `layout`,
/// without a lease, each grant held `hold`, saturated for [`WINDOW`].
fn rate(
    d: &Discipline,
    (workers, resources): (usize, usize),
    layout: Layout,
    hold: Duration,
) -> f64 {
    let broker = d.broker(workers, resources, layout, None);
    saturated_grants_per_sec(d.name, broker.as_ref(), hold, WINDOW, None).0
}

/// Saturated multi-threaded grant throughput (grants per wall second) of
/// each runtime broker discipline: 4 workers on 2 resources, zero hold
/// time, a short fixed window. Contended-path counterpart of the
/// `broker_*_uncontended_cycle` kernels; recorded in the `broker` section
/// of `BENCH_perf.json` for trend visibility (wall-clock thread scheduling
/// makes it too noisy for a hard gate — the gate is the kernels).
fn broker_saturated_throughput() -> Vec<(&'static str, f64)> {
    DISCIPLINES
        .iter()
        .map(|d| (d.name, rate(d, FLAT, Layout::Plain, Duration::ZERO)))
        .collect()
}

/// The grants/sec-vs-shards scaling curve: each discipline rebuilt as a
/// [`ShardedBroker`](rsin_broker::ShardedBroker) over 8 workers and 4
/// resources at 1, 2, and 4 logical shards, saturated for the same window
/// as the flat measurement. The point's `cpu_cores` stamp lets `--check`
/// refuse to compare curves from different hosts. On a single-core runner
/// the curve measures the sharding machinery's overhead and contention
/// behavior, not real parallel speedup — that is exactly what the
/// shards_1 gate consumes.
fn broker_scaling(cpu_cores: usize) -> Vec<ScalingPoint> {
    [1usize, 2, 4]
        .into_iter()
        .map(|shards| ScalingPoint {
            shards,
            cpu_cores,
            rates: DISCIPLINES
                .iter()
                .map(|d| {
                    let r = rate(d, SCALING, Layout::Sharded(shards), Duration::ZERO);
                    (d.name.to_string(), r)
                })
                .collect(),
        })
        .collect()
}

/// The sharding-overhead gate: a single-shard
/// [`ShardedBroker`](rsin_broker::ShardedBroker) must stay within
/// [`REGRESSION_TOLERANCE`]× of the plain discipline it wraps, on the same
/// topology the flat saturated measurement uses (4 workers, 2 resources).
/// Both sides are measured fresh in the same run so the comparison never
/// crosses hosts or baselines. Returns the names of disciplines whose
/// overhead persisted through the retries.
///
/// The comparison runs with a small but *nonzero* transmission hold. At
/// zero hold a plain discipline's throughput is dominated by whichever
/// thread happens to be hot re-acquiring the slot it just released — an
/// operating point the sharded wrapper deliberately forbids (its camp
/// queue hands freed capacity to the oldest waiter, which on a saturated
/// host costs a thread handoff per grant). A realistic hold measures the
/// wrapper's actual per-grant overhead instead of the price of fairness
/// under zero service time; the paper's transmissions always take time.
fn sharding_overhead_check() -> Vec<String> {
    let hold = Duration::from_micros(50);
    let mut failed = Vec::new();
    for d in &DISCIPLINES {
        let name = d.name;
        let plain = || rate(d, FLAT, Layout::Plain, hold);
        let sharded = || rate(d, FLAT, Layout::Sharded(1), hold);
        let (mut plain_rate, mut sharded_rate) = (plain(), sharded());
        let mut ratio = plain_rate / sharded_rate.max(1.0);
        for attempt in 1..=CHECK_RETRIES {
            if ratio <= REGRESSION_TOLERANCE {
                break;
            }
            eprintln!(
                "perf check: shards_1 {name} overhead {ratio:.2}x; re-measuring to rule \
                 out runner noise (attempt {attempt}/{CHECK_RETRIES}) ..."
            );
            // Throughput gate, so fold in the *maximum* of repeated runs —
            // the best a discipline achieved is its capability.
            plain_rate = plain_rate.max(plain());
            sharded_rate = sharded_rate.max(sharded());
            ratio = plain_rate / sharded_rate.max(1.0);
        }
        if ratio > REGRESSION_TOLERANCE {
            eprintln!(
                "perf check: SHARDING OVERHEAD {name}: plain {plain_rate:.0} vs \
                 1-shard {sharded_rate:.0} grants/sec ({ratio:.2}x, tolerance \
                 {REGRESSION_TOLERANCE}x)"
            );
            failed.push(name.to_string());
        } else {
            eprintln!(
                "perf check: ok shards_1 {name}: plain {plain_rate:.0} vs 1-shard \
                 {sharded_rate:.0} grants/sec ({ratio:.2}x)"
            );
        }
    }
    failed
}

/// Degraded-mode counterpart of [`broker_saturated_throughput`]: each
/// discipline rebuilt with a lease and measured twice over the same
/// window — healthy, then with worker 0 killed mid-protocol at the 40 ms
/// mark and its leaked lease reclaimed by the supervisor. Recorded as the
/// `resilience_grants_per_sec` object of the `broker` section (trend
/// visibility, not a hard gate — same rationale as the saturated rates);
/// the run itself still hard-asserts zero violations, the kill firing,
/// and post-fault liveness, so a wedged discipline fails the report.
fn broker_resilience() -> Vec<(&'static str, f64, f64)> {
    // The lease must dominate the worst-case scheduler stall of a *live*
    // holder — on a loaded single-core runner a spinning holder can sit
    // off-CPU for several milliseconds, and evicting it would double-grant.
    // 20 ms still reclaims the killed worker's grant with two thirds of the
    // window left to measure post-fault throughput.
    let lease = Duration::from_millis(20);
    let (workers, resources) = FLAT;
    DISCIPLINES
        .iter()
        .map(|d| {
            let name = d.name;
            let sweep = |chaos: Option<&ChaosOptions>| {
                let broker = d.broker(workers, resources, Layout::Plain, Some(lease));
                saturated_grants_per_sec(name, broker.as_ref(), Duration::ZERO, WINDOW, chaos)
            };
            let (healthy, _) = sweep(None);
            let plan = ChaosPlan::new().with(ClientEvent {
                at: 40.0, // milliseconds on the saturated driver's wall clock
                worker: 0,
                kind: ClientChaos::Crash,
            });
            let (degraded, chaos) = sweep(Some(&ChaosOptions::new(plan, lease)));
            let chaos = chaos.expect("chaos accounting");
            assert_eq!(chaos.crashed, 1, "{name}: the kill must fire");
            assert!(chaos.post_chaos_grants > 0, "{name}: wedged after the kill");
            (name, healthy, degraded)
        })
        .collect()
}

/// Loopback clients, tenant classes and pool shards of the networked
/// probe.
const NET_CLIENTS: usize = 4;
const NET_TENANTS: u8 = 3;
const NET_SHARDS: usize = 2;

/// Saturated loopback throughput and grant-latency quantiles of the
/// networked front-end: [`netbench::measure_self`]'s in-process
/// [`NetServer`](rsin_broker::net::NetServer) over a 2-shard SBUS pool,
/// driven closed-loop by 4 loopback TCP clients across 3 tenant classes.
/// Recorded as the `netbroker` section of `BENCH_perf.json` for trend
/// visibility — real sockets plus thread scheduling are too noisy for a
/// hard gate (the gated kernels are untouched) — but the run still
/// hard-asserts a clean exclusivity ledger and zero leaked slots, so a
/// broken wire protocol fails the report.
fn netbroker_perf() -> (f64, f64, f64, f64) {
    let cfg = BrokerBenchConfig {
        threads: NET_CLIENTS,
        shards: NET_SHARDS,
        tenants: NET_TENANTS,
        ..BrokerBenchConfig::default()
    };
    let load = NetLoadConfig {
        clients: NET_CLIENTS,
        tenants: NET_TENANTS,
        window: Duration::from_millis(150),
        deadline: Some(Duration::from_millis(100)),
        ..NetLoadConfig::default()
    };
    let (report, sr) = netbench::measure_self(&cfg, &load);
    assert_eq!(sr.violations, 0, "netbroker: exclusivity violated");
    assert_eq!(sr.leaked, 0, "netbroker: slots leaked through shutdown");
    assert!(
        report.grants > 0,
        "netbroker: the loopback sweep never granted"
    );
    (
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.99),
        report.latency_quantile_us(0.999),
        report.grants_per_sec,
    )
}

/// Prints one line per kernel verdict. New kernels are explicitly called
/// out as recorded rather than failed, so a CI log never reads an added
/// kernel as a problem.
fn print_checks(checks: &[KernelCheck]) {
    for c in checks {
        let (name, new_ns) = (&c.name, c.fresh_ns);
        match c.verdict {
            Verdict::Regressed { baseline_ns, ratio } => eprintln!(
                "perf check: REGRESSION {name}: {baseline_ns:.1} -> {new_ns:.1} ns/iter \
                 ({ratio:.2}x, tolerance {REGRESSION_TOLERANCE}x)"
            ),
            Verdict::Ok { baseline_ns, ratio } => eprintln!(
                "perf check: ok {name}: {baseline_ns:.1} -> {new_ns:.1} ns/iter ({ratio:.2}x)"
            ),
            Verdict::Recorded => eprintln!(
                "perf check: new kernel {name}: {new_ns:.1} ns/iter — \
                 recorded, not failed (no baseline entry)"
            ),
        }
    }
}

/// Reports how the parallel suite leg compares to the baseline. Wall-clock
/// suite timing is too noisy for a hard gate, so the comparison is
/// informational — but a leg that is `null` on either side (e.g. skipped
/// with reason "single core") is *skipped*, never compared or failed.
fn report_parallel_leg(baseline: &Value, fresh: &SuiteTimings) {
    match perfgate::parallel_leg_status(&perfgate::suite_timings(baseline), fresh) {
        LegStatus::Skipped { reason } => {
            eprintln!("perf check: parallel suite leg skipped ({reason}); not compared");
        }
        LegStatus::Compared {
            baseline_secs,
            fresh_secs,
        } => eprintln!(
            "perf check: parallel suite leg {baseline_secs:.3}s -> {fresh_secs:.3}s \
             (informational, not gated)"
        ),
    }
}

/// How many times an apparent regression is re-measured before the gate
/// fails. A real slowdown reproduces on every attempt; a burst of runner
/// contention does not survive two more floor measurements.
const CHECK_RETRIES: usize = 3;

/// Runs the regression check, re-measuring (and folding in the per-kernel
/// minimum) while any kernel still exceeds tolerance. Mutates `rows` so the
/// persisted JSON carries the best floor observed.
fn run_check(baseline: &Value, rows: &mut [(&'static str, f64)]) -> Vec<String> {
    let mut regressed = perfgate::regressed_names(&perfgate::check_kernels(baseline, rows));
    for attempt in 1..=CHECK_RETRIES {
        if regressed.is_empty() {
            break;
        }
        eprintln!(
            "perf check: {} kernel(s) above tolerance; re-measuring to rule out \
             runner noise (attempt {attempt}/{CHECK_RETRIES}) ...",
            regressed.len()
        );
        for (row, again) in rows.iter_mut().zip(kernels()) {
            debug_assert_eq!(row.0, again.0);
            row.1 = row.1.min(again.1);
        }
        regressed = perfgate::regressed_names(&perfgate::check_kernels(baseline, rows));
    }
    let checks = perfgate::check_kernels(baseline, rows);
    print_checks(&checks);
    perfgate::regressed_names(&checks)
}

/// Reports how the fresh scaling curve compares to the baseline, point by
/// point. Wall-clock throughput is informational (the hard scaling gate is
/// [`sharding_overhead_check`]); a point with no comparable baseline —
/// unknown shard count or a different host core count — is skipped with
/// its reason, exactly like the single-core parallel-leg skip.
fn report_scaling(baseline: &Value, fresh: &[ScalingPoint]) {
    let old = perfgate::scaling_curve(baseline);
    for point in fresh {
        match perfgate::scaling_point_status(&old, point) {
            ScalingStatus::Skipped { reason } => eprintln!(
                "perf check: scaling point shards_{} skipped ({reason}); not compared",
                point.shards
            ),
            ScalingStatus::Compared { ratios } => {
                let rendered: Vec<String> = ratios
                    .iter()
                    .map(|(name, ratio)| format!("{name} {ratio:.2}x"))
                    .collect();
                eprintln!(
                    "perf check: scaling point shards_{}: {} (informational, not gated)",
                    point.shards,
                    rendered.join(", ")
                );
            }
        }
    }
}

/// A `{ "name": value, ... }` object with every value at `decimals`
/// digits after the point.
fn table(rows: &[(&str, f64)], decimals: usize) -> Value {
    Value::object(rows.iter().map(|&(k, v)| (k, Value::fixed(v, decimals))))
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_perf.json")
}

fn main() {
    let base = RunQuality::from_args();
    let preset = if std::env::args().any(|a| a == "--full") {
        "full"
    } else {
        "quick"
    };
    let check = std::env::args().any(|a| a == "--check");
    let par_jobs = base.jobs();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("timing suite with --jobs 1 ...");
    let seq_secs = time_suite(&RunQuality { jobs: 1, ..base });
    // A parallel-vs-sequential comparison on one core measures nothing but
    // scheduling overhead; record it as skipped rather than as a bogus
    // sub-1.0 "speedup".
    let (parallel_seconds, skipped_reason) = if cores > 1 {
        eprintln!("timing suite with --jobs {par_jobs} ...");
        let par_secs = time_suite(&RunQuality {
            jobs: par_jobs,
            ..base
        });
        (Some(par_secs), None)
    } else {
        eprintln!("single-core host: skipping the parallel suite leg");
        (None, Some(perfgate::SINGLE_CORE_REASON.to_string()))
    };
    let fresh_suite = SuiteTimings {
        sequential_seconds: Some(seq_secs),
        parallel_seconds,
        skipped_reason,
    };
    eprintln!("measuring hot-path kernels ...");
    let mut kernel_rows = kernels();
    eprintln!("measuring saturated broker throughput ...");
    let broker_rows = broker_saturated_throughput();
    eprintln!("measuring degraded-mode broker throughput ...");
    let resilience_rows = broker_resilience();
    eprintln!("measuring sharded broker scaling curve ...");
    let scaling_points = broker_scaling(cores);
    eprintln!("measuring networked front-end loopback throughput ...");
    let (net_p50, net_p99, net_p999, net_gps) = netbroker_perf();
    eprintln!("running the provisioning-search probe ...");
    let (prov_secs, prov_report) = provision_bench::perf_section();

    let path = baseline_path();
    let regressed = if check {
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text));
        match baseline {
            Ok(baseline) => {
                report_parallel_leg(&baseline, &fresh_suite);
                report_scaling(&baseline, &scaling_points);
                run_check(&baseline, &mut kernel_rows)
            }
            Err(e) => {
                eprintln!(
                    "perf check: no baseline at {} ({e}); passing",
                    path.display()
                );
                Vec::new()
            }
        }
    } else {
        Vec::new()
    };
    // Within-run gate: no baseline needed, so it runs on every --check
    // even when BENCH_perf.json is absent.
    let overhead_failed = if check {
        eprintln!("perf check: gating single-shard wrapper overhead ...");
        sharding_overhead_check()
    } else {
        Vec::new()
    };

    let resilience = resilience_rows.iter().map(|&(name, healthy, degraded)| {
        (
            name,
            table(&[("healthy", healthy), ("degraded", degraded)], 0),
        )
    });
    let latency = [("p50", net_p50), ("p99", net_p99), ("p999", net_p999)];
    let report = Value::object([
        (
            "generated_by",
            Value::from("cargo run --release -p rsin-bench --bin perf_report"),
        ),
        ("preset", Value::from(preset)),
        ("cpu_cores", Value::from(cores)),
        ("suite", perfgate::suite_section(&fresh_suite, par_jobs)),
        (
            "broker",
            Value::object([
                ("saturated_grants_per_sec", table(&broker_rows, 0)),
                ("resilience_grants_per_sec", Value::object(resilience)),
                (
                    "scaling_grants_per_sec",
                    perfgate::scaling_section(&scaling_points),
                ),
                ("scaling_workers", Value::from(SCALING.0)),
                ("scaling_resources", Value::from(SCALING.1)),
            ]),
        ),
        (
            "netbroker",
            Value::object([
                ("clients", Value::from(NET_CLIENTS)),
                ("tenants", Value::from(u64::from(NET_TENANTS))),
                ("shards", Value::from(NET_SHARDS)),
                ("grant_latency_us", table(&latency, 0)),
                ("saturated_grants_per_sec", Value::fixed(net_gps, 0)),
            ]),
        ),
        // Informational only (not gated): search wall time varies by host;
        // the counters describe the optimizer's pruning on a fixed
        // 16-processor shared-bus probe.
        (
            "provisioning",
            Value::object([
                ("probe", Value::from("p=16 sbus-only quick search")),
                ("search_wall_seconds", Value::fixed(prov_secs, 3)),
                ("configs_enumerated", Value::from(prov_report.total_configs)),
                ("configs_evaluated", Value::from(prov_report.evaluated)),
                (
                    "pruned_fraction",
                    Value::fixed(prov_report.pruned_fraction(), 3),
                ),
            ]),
        ),
        ("kernels_ns_per_iter", table(&kernel_rows, 1)),
    ]);
    let json = report.to_pretty();

    print!("{json}");
    // Atomic + fatal: a missing or truncated BENCH_perf.json would silently
    // disarm the CI regression gate, so a failed write is a failed run.
    match rsin_bench::output::atomic_write(&path, json.as_bytes()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("perf_report: FAILED — {e}");
            std::process::exit(1);
        }
    }

    let mut failures = Vec::new();
    if !regressed.is_empty() {
        failures.push(format!(
            "{} kernel(s) regressed beyond {REGRESSION_TOLERANCE}x: {}",
            regressed.len(),
            regressed.join(", ")
        ));
    }
    if !overhead_failed.is_empty() {
        failures.push(format!(
            "single-shard wrapper overhead beyond {REGRESSION_TOLERANCE}x: {}",
            overhead_failed.join(", ")
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf check: FAILED — {f}");
        }
        std::process::exit(1);
    }
}
