//! The runtime-broker benchmark: sweeps offered load ρ (and a worker-thread
//! count) through the `rsin-broker` SBUS implementation and emits two
//! artifacts under the experiment output directory:
//!
//! - `broker_predictions` — the model side (exact [`SharedBusChain`] curve
//!   plus a DES replication interval per ρ). Fully deterministic:
//!   byte-identical for every `--jobs` value, so it participates in the
//!   `broker_manifest.json` digest gate and `--resume` skips it when its
//!   digests still match the files on disk.
//! - `broker_measured` — the runtime side (real threads, wall clock). Timing
//!   data by nature, so it is always recomputed; its table carries the
//!   model/measured ratio per ρ and the exclusivity-audit verdict.
//!
//! CLI: `--threads N`, `--duration-ms N`, `--rho a,b,c`, `--shards N`
//! (both `--flag v` and `--flag=v` spellings, read by [`crate::flags`]),
//! plus the shared `--jobs` / `--full` / `--resume` harness flags.
//! Malformed values and undeclared arguments are typed
//! [`ConfigError::Parse`] errors, exactly like the suite's `--jobs`.
//! `--shards N` partitions the pool into N per-shard SBUS arbiters behind
//! a [`ShardedBroker`] ([`RESOURCES`] slots each); the model side solves
//! the chain at the same total pool, so the model/measured ratio stays
//! meaningful at every shard count.
//!
//! `--chaos <spec>` switches the measured leg to the chaos-hardened
//! driver: the spec's seeded fractions of worker threads crash or stall
//! mid-protocol, optional `mtbf=`/`mttr=` add a stochastic outage of
//! resource 0, and the table gains a fault-accounting section.
//! The exclusivity audit and the leak inventory still gate the exit code —
//! a chaos run that violates exclusivity or leaks a resource fails the
//! benchmark exactly like a healthy run with a violation.

use crate::flags;
use crate::manifest::{Manifest, ManifestEntry};
use crate::output;
use crate::RunQuality;
use rsin_broker::{
    loadgen, Arrival, Broker, ChaosOptions, ChaosPlan, ChaosSpec, ChaosSummary, LoadConfig,
    OmegaBroker, SbusBroker, ShardedBroker, XbarBroker, XbarPolicy,
};
use rsin_core::experiment::{Experiment, Series};
use rsin_core::{simulate, ConfigError, HarnessError, SimOptions, Workload};
use rsin_des::{replicate, scope_map_indexed, SimRng};
use rsin_des::{FaultPlan, FaultTarget, StochasticFault};
use rsin_queueing::{SharedBusChain, SharedBusParams};
use rsin_sbus::{Arbitration, SharedBusNetwork};
use std::fmt::Write as _;
use std::time::Duration;
use std::time::Instant;

/// Resources *per logical shard* in the benchmarked pool (Section III's
/// `r` when running unsharded; the sweep's total pool is
/// [`BrokerBenchConfig::total_resources`]).
pub const RESOURCES: usize = 2;
/// Transmission rate µ_n.
pub const MU_N: f64 = 4.0;
/// Service rate µ_s.
pub const MU_S: f64 = 1.0;
/// Wall microseconds per model time unit in the measured leg.
pub const SCALE_US: f64 = 1_200.0;
/// Lease used by the chaos leg. Must be ≫ the mean service time in model
/// units (1/µ_s = 1 unit = 1.2 ms wall here) or the supervisor truncates
/// the exponential service tail by evicting legitimate slow holders —
/// ~21 units keeps P(service > lease) ≈ e⁻²¹ while still reclaiming a
/// dead client's grant within 25 ms.
pub const CHAOS_LEASE: Duration = Duration::from_millis(25);

/// Where `--connect` points the networked load harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetTarget {
    /// Spin up an in-process server on a loopback ephemeral port, drive
    /// it, and shut it down — the self-contained mode CI uses, and the
    /// only one that can audit the server-side ledger.
    SelfServe,
    /// An already-running server (started with `--serve`), possibly on
    /// another host. Client-side statistics only.
    Addr(std::net::SocketAddr),
}

/// What to sweep: parsed from the command line, defaulted for CI.
#[derive(Clone, Debug, PartialEq)]
pub struct BrokerBenchConfig {
    /// Worker threads contending for the broker (the model's `p`). In the
    /// networked mode this is the client-connection count.
    pub threads: usize,
    /// Measured wall time per ρ point, in milliseconds. The networked
    /// mode's measurement window.
    pub duration_ms: u64,
    /// Offered-load points, each relative to the pipeline's saturation
    /// throughput (the chain's `utilization()` dial).
    pub rho: Vec<f64>,
    /// Logical shards the resource pool is partitioned into (`--shards`);
    /// each shard holds [`RESOURCES`] slots, so the total pool scales with
    /// the shard count. `1` runs the plain single-arbiter broker.
    pub shards: usize,
    /// Chaos schedule for the measured leg (`--chaos`); `None` runs the
    /// healthy driver. The `trunc=`/`junk=` wire faults require the
    /// networked mode.
    pub chaos: Option<ChaosSpec>,
    /// `--serve ADDR`: run a networked broker front-end on `ADDR` instead
    /// of the benchmark, until stdin closes.
    pub serve: Option<std::net::SocketAddr>,
    /// `--connect ADDR|self`: run the networked load harness instead of
    /// the in-process measured sweep.
    pub connect: Option<NetTarget>,
    /// Tenant classes of the networked mode (`--tenants`, 1–8); class 0
    /// is never shed by admission control.
    pub tenants: u8,
    /// Per-request deadline of the networked mode in milliseconds
    /// (`--deadline-ms`, ≥ 1), carried on the wire so the server sheds
    /// expired work before arbitration.
    pub deadline_ms: u64,
}

impl Default for BrokerBenchConfig {
    fn default() -> Self {
        BrokerBenchConfig {
            threads: 6,
            duration_ms: 400,
            rho: vec![0.2, 0.5, 0.8],
            shards: 1,
            chaos: None,
            serve: None,
            connect: None,
            tenants: 3,
            deadline_ms: 100,
        }
    }
}

/// The valued flags `broker_bench` accepts: its own plus [`RunQuality`]'s
/// `--jobs`.
const VALUE_FLAGS: [&str; 10] = [
    "--threads",
    "--duration-ms",
    "--rho",
    "--shards",
    "--chaos",
    "--serve",
    "--connect",
    "--tenants",
    "--deadline-ms",
    "--jobs",
];

/// The bare switches `broker_bench` accepts: [`RunQuality`]'s `--full` and
/// the harness's `--resume`.
const SWITCHES: [&str; 2] = ["--full", "--resume"];

impl BrokerBenchConfig {
    /// Parses the process arguments (program name first): `--threads`,
    /// `--duration-ms`, `--rho`, `--shards`, `--chaos` and the networked
    /// flags; absent flags keep their defaults.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] naming the offending flag and the expected
    /// shape when a value is missing, malformed, or out of range, or
    /// naming an argument that is neither one of these flags nor `--jobs`,
    /// `--full` or `--resume`.
    pub fn try_from_args(args: &[String]) -> Result<Self, ConfigError> {
        flags::reject_unknown(
            args.get(1..).unwrap_or_default(),
            &VALUE_FLAGS,
            &SWITCHES,
            "a broker_bench flag (--threads, --duration-ms, --rho, --shards, --chaos, \
             --serve, --connect, --tenants, --deadline-ms, --jobs, --full, --resume)",
        )?;
        let mut cfg = BrokerBenchConfig::default();
        if let Some(v) = flags::value(args, "--threads")? {
            cfg.threads = parse_threads(&v)?;
        }
        if let Some(v) = flags::value(args, "--duration-ms")? {
            cfg.duration_ms = parse_duration_ms(&v)?;
        }
        if let Some(v) = flags::value(args, "--rho")? {
            cfg.rho = parse_rho(&v)?;
        }
        if let Some(v) = flags::value(args, "--shards")? {
            cfg.shards = parse_shards(&v)?;
        }
        if let Some(v) = flags::value(args, "--chaos")? {
            cfg.chaos = Some(parse_chaos(&v)?);
        }
        if let Some(v) = flags::value(args, "--serve")? {
            cfg.serve = Some(parse_serve(&v)?);
        }
        if let Some(v) = flags::value(args, "--connect")? {
            cfg.connect = Some(parse_connect(&v)?);
        }
        if let Some(v) = flags::value(args, "--tenants")? {
            cfg.tenants = parse_tenants(&v)?;
        }
        if let Some(v) = flags::value(args, "--deadline-ms")? {
            cfg.deadline_ms = parse_deadline_ms_flag("--deadline-ms", &v)?;
        }
        if cfg.serve.is_some() && cfg.connect.is_some() {
            return Err(ConfigError::Parse {
                input: "--serve --connect".into(),
                expected: "at most one of --serve (run a server) and --connect (drive one)",
            });
        }
        if let Some(spec) = &cfg.chaos {
            if (spec.trunc > 0.0 || spec.junk > 0.0) && cfg.connect.is_none() {
                return Err(ConfigError::Parse {
                    input: format!("--chaos trunc={},junk={}", spec.trunc, spec.junk),
                    expected: "trunc=/junk= are wire-level faults; they need the networked \
                               harness (--connect ADDR or --connect self)",
                });
            }
        }
        Ok(cfg)
    }

    /// [`BrokerBenchConfig::try_from_args`] over the process arguments;
    /// a malformed flag is an actionable error on stderr and exit code 2.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match BrokerBenchConfig::try_from_args(&args) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Stable fingerprint of everything that determines the *predictions*
    /// artifact; recorded in `broker_manifest.json` so `--resume` against a
    /// different sweep recomputes instead of mixing configurations.
    #[must_use]
    pub fn fingerprint(&self, quality: &RunQuality) -> String {
        let rho: Vec<String> = self.rho.iter().map(|r| format!("{r}")).collect();
        format!(
            "broker threads={} rho={} shards={} r={} mu_n={MU_N} mu_s={MU_S} | {}",
            self.threads,
            rho.join(","),
            self.shards,
            self.total_resources(),
            quality.fingerprint()
        )
    }

    /// Size of the whole benchmarked pool: [`RESOURCES`] slots per logical
    /// shard. The model side uses the same total, so the model/measured
    /// ratio stays apples-to-apples at every shard count.
    #[must_use]
    pub fn total_resources(&self) -> usize {
        RESOURCES * self.shards
    }

    /// Per-worker arrival rate that offers `rho` of the pipeline's
    /// saturation throughput.
    #[must_use]
    pub fn lambda_at(&self, rho: f64) -> f64 {
        rho * saturation_capacity_for(self.total_resources()) / self.threads as f64
    }
}

/// Saturation throughput of the default (unsharded) bus–resource pipeline.
#[must_use]
pub fn saturation_capacity() -> f64 {
    saturation_capacity_for(RESOURCES)
}

/// Saturation throughput of a bus–resource pipeline with `resources`
/// slots, `µ_n · (1 − B(µ_n/µ_s, r))` — probed from the chain at
/// vanishing load.
#[must_use]
pub fn saturation_capacity_for(resources: usize) -> f64 {
    SharedBusChain::new(SharedBusParams {
        processors: 1,
        resources: resources as u32,
        lambda: 1e-9,
        mu_n: MU_N,
        mu_s: MU_S,
    })
    .expect("stable at vanishing load")
    .saturation_throughput()
}

/// How a discipline's resource pool is laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One arbiter over the whole pool.
    Plain,
    /// A [`ShardedBroker`] over this many per-shard arbiters. `Sharded(1)`
    /// is the wrapper around a single arbiter, not the plain discipline.
    Sharded(usize),
}

impl Layout {
    fn boxed<B: Broker + 'static>(
        self,
        workers: usize,
        resources: usize,
        mut make: impl FnMut(usize, usize) -> B,
    ) -> Box<dyn Broker> {
        match self {
            Layout::Plain => Box::new(make(workers, resources)),
            Layout::Sharded(n) => Box::new(ShardedBroker::new(workers, resources, n, make)),
        }
    }
}

/// One runtime discipline: its report name and its broker factory.
#[derive(Clone, Copy, Debug)]
pub struct Discipline {
    /// The name every broker section reports it under.
    pub name: &'static str,
    build: fn(usize, usize, Layout, Option<Duration>) -> Box<dyn Broker>,
}

impl Discipline {
    /// A broker of this discipline over `workers` and `resources`, laid
    /// out as `layout`, whose grants expire after `lease` when one is
    /// given (never otherwise).
    #[must_use]
    pub fn broker(
        &self,
        workers: usize,
        resources: usize,
        layout: Layout,
        lease: Option<Duration>,
    ) -> Box<dyn Broker> {
        (self.build)(workers, resources, layout, lease)
    }
}

/// The three runtime disciplines in report order: the shared bus, the
/// token-rotating crossbar, and the Omega network.
pub const DISCIPLINES: [Discipline; 3] = [
    Discipline {
        name: "sbus",
        build: |w, r, layout, lease| {
            layout.boxed(w, r, move |w, r| match lease {
                Some(l) => SbusBroker::with_lease(w, r, l),
                None => SbusBroker::new(w, r),
            })
        },
    },
    Discipline {
        name: "xbar_token",
        build: |w, r, layout, lease| {
            let policy = XbarPolicy::TokenRotation;
            layout.boxed(w, r, move |w, r| match lease {
                Some(l) => XbarBroker::with_lease(w, r, policy, l),
                None => XbarBroker::new(w, r, policy),
            })
        },
    },
    Discipline {
        name: "omega",
        build: |w, r, layout, lease| {
            layout.boxed(w, r, move |w, r| match lease {
                Some(l) => OmegaBroker::with_lease(w, r, l),
                None => OmegaBroker::new(w, r),
            })
        },
    },
];

/// One saturated sweep: every worker of `broker` loops acquire → hold
/// `hold` → release for `window`, under `chaos` when given. Returns the
/// grants per second of the window, plus the chaos accounting of a chaos
/// run.
///
/// # Panics
///
/// Panics, naming `label`, if the exclusivity ledger flags a violation.
#[must_use]
pub fn saturated_grants_per_sec(
    label: &str,
    broker: &dyn Broker,
    hold: Duration,
    window: Duration,
    chaos: Option<&ChaosOptions>,
) -> (f64, Option<ChaosSummary>) {
    let arrival = Arrival::Saturated {
        hold,
        run_for: window,
    };
    let report = loadgen::run(broker, &arrival, chaos);
    assert_eq!(report.violations, 0, "{label}: exclusivity violated");
    (
        report.total_grants() as f64 / window.as_secs_f64(),
        report.chaos,
    )
}

fn parse_threads(v: &str) -> Result<usize, ConfigError> {
    match v.parse::<usize>() {
        Ok(n) if (1..=64).contains(&n) => Ok(n),
        _ => Err(ConfigError::Parse {
            input: format!("--threads {v}"),
            expected: "a worker-thread count between 1 and 64, e.g. --threads 6",
        }),
    }
}

fn parse_shards(v: &str) -> Result<usize, ConfigError> {
    match v.parse::<usize>() {
        Ok(n) if (1..=8).contains(&n) => Ok(n),
        _ => Err(ConfigError::Parse {
            input: format!("--shards {v}"),
            expected: "a logical shard count between 1 and 8, e.g. --shards 2",
        }),
    }
}

fn parse_duration_ms(v: &str) -> Result<u64, ConfigError> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ConfigError::Parse {
            input: format!("--duration-ms {v}"),
            expected: "a positive measured duration in milliseconds, e.g. --duration-ms 400",
        }),
    }
}

fn parse_serve(v: &str) -> Result<std::net::SocketAddr, ConfigError> {
    v.parse().map_err(|_| ConfigError::Parse {
        input: format!("--serve {v}"),
        expected: "a bind address like 127.0.0.1:7070 (port 0 picks one), e.g. --serve 127.0.0.1:0",
    })
}

fn parse_connect(v: &str) -> Result<NetTarget, ConfigError> {
    if v == "self" {
        return Ok(NetTarget::SelfServe);
    }
    v.parse()
        .map(NetTarget::Addr)
        .map_err(|_| ConfigError::Parse {
            input: format!("--connect {v}"),
            expected: "a server address like 127.0.0.1:7070, or `self` for an in-process \
                       loopback server, e.g. --connect self",
        })
}

fn parse_tenants(v: &str) -> Result<u8, ConfigError> {
    match v.parse::<u8>() {
        Ok(n) if (1..=8).contains(&n) => Ok(n),
        _ => Err(ConfigError::Parse {
            input: format!("--tenants {v}"),
            expected: "a tenant-class count between 1 and 8, e.g. --tenants 3",
        }),
    }
}

fn parse_deadline_ms_flag(flag: &str, v: &str) -> Result<u64, ConfigError> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(ConfigError::Parse {
            input: format!("{flag} {v}"),
            expected: "a positive per-request deadline in milliseconds, e.g. --deadline-ms 100",
        }),
    }
}

fn parse_chaos(v: &str) -> Result<ChaosSpec, ConfigError> {
    ChaosSpec::parse(v).map_err(|detail| {
        eprintln!("note: {detail}");
        ConfigError::Parse {
            input: format!("--chaos {v}"),
            expected: "key=value pairs kill=<frac>, stall=<frac>, seed=<u64>, \
                       optional mtbf=/mttr= (e.g. kill=0.25,stall=0.125,seed=7)",
        }
    })
}

fn parse_rho(v: &str) -> Result<Vec<f64>, ConfigError> {
    let bad = || ConfigError::Parse {
        input: format!("--rho {v}"),
        expected: "a comma-separated list of loads in (0, 1), e.g. --rho 0.2,0.5,0.8",
    };
    let mut out = Vec::new();
    for part in v.split(',') {
        match part.trim().parse::<f64>() {
            Ok(r) if r > 0.0 && r < 1.0 => out.push(r),
            _ => return Err(bad()),
        }
    }
    if out.is_empty() {
        return Err(bad());
    }
    Ok(out)
}

/// The deterministic model-side artifact: chain curve + DES replication
/// interval per ρ. DES points are computed on `quality.jobs()` workers;
/// the result is byte-identical for every worker count (fixed per-point
/// seeds, emission in ρ order).
#[must_use]
pub fn predictions_experiment(cfg: &BrokerBenchConfig, quality: &RunQuality) -> Experiment {
    let p = cfg.threads;
    let r = cfg.total_resources();
    let opts = SimOptions {
        warmup_tasks: quality.warmup,
        measured_tasks: quality.measured,
    };
    let reps = quality.reps.max(2);
    let rows: Vec<(f64, f64, f64, f64)> = scope_map_indexed(cfg.rho.len(), quality.jobs(), |i| {
        let rho = cfg.rho[i];
        let lambda = cfg.lambda_at(rho);
        let chain = SharedBusChain::new(SharedBusParams {
            processors: p as u32,
            resources: r as u32,
            lambda,
            mu_n: MU_N,
            mu_s: MU_S,
        })
        .expect("rho < 1 keeps the chain stable")
        .solve()
        .expect("solves")
        .mean_queue_delay;
        let workload = Workload::new(lambda, MU_N, MU_S).expect("valid workload");
        let des = replicate(
            &SimRng::new(quality.seed ^ (0xB0_5E_u64 + i as u64)),
            reps,
            0.95,
            |_, mut rng| {
                let mut net = SharedBusNetwork::new(1, p, r as u32, Arbitration::RoundRobin);
                simulate(&mut net, &workload, &opts, &mut rng).mean_delay()
            },
        );
        let interval = des.interval.expect("at least two replications");
        (rho, chain, interval.mean, interval.half_width)
    });

    let mut e = Experiment::new(
        format!(
            "Runtime broker predictions: {p} processors, {r} resources, \
             mu_n = {MU_N}, mu_s = {MU_S}"
        ),
        "rho (offered load / saturation throughput)",
        "mean grant delay d (1/mu_s units)",
    );
    let mut chain_s = Series::new("chain (exact)");
    let mut des_s = Series::new("DES (95% CI)");
    for &(rho, chain, des_mean, hw) in &rows {
        chain_s.push(rho, chain);
        des_s.push_ci(rho, des_mean, hw);
    }
    e.add(chain_s);
    e.add(des_s);
    e
}

/// One ρ point of the measured leg.
#[derive(Clone, Debug)]
pub struct MeasuredPoint {
    /// The offered-load dial.
    pub rho: f64,
    /// Measured mean grant delay in model units.
    pub mean_delay: f64,
    /// Iid standard error of the mean (understates near saturation).
    pub std_error: f64,
    /// Completed measured acquisitions.
    pub measured: u64,
    /// Grants per wall second over the measured window.
    pub throughput: f64,
    /// Exclusivity violations flagged by the independent ledger.
    pub violations: u64,
    /// Fault-tolerance accounting, present iff the point ran under chaos.
    pub chaos: Option<ChaosAccounting>,
}

/// Fault-tolerance accounting of one chaos-mode measured point.
#[derive(Clone, Copy, Debug)]
pub struct ChaosAccounting {
    /// Worker threads crashed mid-protocol (scheduled and fired).
    pub crashed: usize,
    /// Stalls executed past the lease.
    pub stalled: usize,
    /// Leases reclaimed by the supervisor plus shutdown force-reclaims.
    pub reclaimed: u64,
    /// Grants after the last scheduled chaos event (liveness witness).
    pub post_chaos_grants: u64,
    /// Resources missing at shutdown plus grants still on the audit
    /// ledger — must be zero.
    pub leaked: u64,
}

/// Builds the per-point chaos options from the flat spec: a seeded client
/// plan inside the measured window, stalls 2.5 leases long (so the
/// supervisor must evict them), and an optional stochastic outage of
/// resource 0.
fn chaos_options(spec: &ChaosSpec, workers: usize, lc: &LoadConfig) -> ChaosOptions {
    let lease_units = CHAOS_LEASE.as_secs_f64() * 1e6 / SCALE_US;
    let window = (lc.warmup + 0.1 * lc.duration, lc.warmup + 0.5 * lc.duration);
    let plan = ChaosPlan::seeded(
        spec.seed,
        workers,
        spec.kill,
        spec.stall,
        window,
        2.5 * lease_units,
    );
    let mut opts = ChaosOptions::new(plan, CHAOS_LEASE);
    if let (Some(mtbf), Some(mttr)) = (spec.mtbf, spec.mttr) {
        opts.faults = FaultPlan::new().stochastic(StochasticFault {
            target: FaultTarget::Resource(0),
            mtbf,
            mttr,
        });
        opts.fault_seed = spec.seed ^ 0xFA17;
    }
    opts
}

/// Runs the measured leg: the SBUS broker (the first [`DISCIPLINES`]
/// row) under `cfg.threads` real worker threads at each ρ,
/// `cfg.duration_ms` of measured wall time per point. `--shards N`
/// (N > 1) swaps in a [`ShardedBroker`] over N per-shard SBUS arbiters
/// with the same total pool; the load generator's worker ids land
/// round-robin across the shards (home shard = `who % N`), so every shard
/// serves local requesters and overflow steals cross shards. With a chaos
/// spec the broker carries a [`CHAOS_LEASE`] lease and the chaos driver
/// injects the scheduled crashes, stalls, and outages.
#[must_use]
pub fn measure(cfg: &BrokerBenchConfig, quality: &RunQuality) -> Vec<MeasuredPoint> {
    let duration_units = (cfg.duration_ms as f64) * 1_000.0 / SCALE_US;
    let pool = cfg.total_resources();
    let layout = match cfg.shards {
        1 => Layout::Plain,
        n => Layout::Sharded(n),
    };
    let lease = cfg.chaos.as_ref().map(|_| CHAOS_LEASE);
    cfg.rho
        .iter()
        .map(|&rho| {
            let mut lc = LoadConfig::new(cfg.lambda_at(rho), MU_S);
            lc.mu_n = Some(MU_N);
            lc.scale_us = SCALE_US;
            lc.warmup = duration_units / 4.0;
            lc.duration = duration_units;
            lc.drain = 50.0;
            lc.seed = quality.seed ^ 0xB70B ^ ((rho * 1_000.0) as u64);
            let arrival = Arrival::Poisson(lc);
            let opts = cfg
                .chaos
                .as_ref()
                .map(|spec| chaos_options(spec, cfg.threads, &lc));
            let broker = DISCIPLINES[0].broker(cfg.threads, pool, layout, lease);
            let start = Instant::now();
            let report = loadgen::run(broker.as_ref(), &arrival, opts.as_ref());
            let wall = start.elapsed().as_secs_f64();
            let chaos = report.chaos.as_ref().map(|c| ChaosAccounting {
                crashed: c.crashed,
                stalled: c.stalled,
                reclaimed: c.reclaimed + c.forced_reclaims,
                post_chaos_grants: c.post_chaos_grants,
                leaked: (pool.saturating_sub(c.available_at_end) + c.ledger_held_at_end) as u64,
            });
            MeasuredPoint {
                rho,
                mean_delay: report.mean_delay(),
                std_error: report.delay().std_error(),
                measured: report.measured(),
                throughput: report.measured() as f64 / wall.max(1e-9),
                violations: report.violations,
                chaos,
            }
        })
        .collect()
}

/// Renders the measured leg next to the chain prediction.
#[must_use]
pub fn measured_table(cfg: &BrokerBenchConfig, points: &[MeasuredPoint]) -> String {
    let mut s = String::new();
    let shard_note = if cfg.shards > 1 {
        format!(" in {} shards", cfg.shards)
    } else {
        String::new()
    };
    let _ = writeln!(
        s,
        "Runtime broker, measured: SBUS, {} threads, {} resources{shard_note}, \
         {} ms per point (scale {SCALE_US} us/unit)",
        cfg.threads,
        cfg.total_resources(),
        cfg.duration_ms
    );
    let _ = writeln!(
        s,
        "{:>6} {:>12} {:>10} {:>8} {:>12} {:>12} {:>10}",
        "rho", "measured d", "iid se", "n", "grants/sec", "chain d", "violations"
    );
    for pt in points {
        let chain = SharedBusChain::new(SharedBusParams {
            processors: cfg.threads as u32,
            resources: cfg.total_resources() as u32,
            lambda: cfg.lambda_at(pt.rho),
            mu_n: MU_N,
            mu_s: MU_S,
        })
        .expect("stable")
        .solve()
        .expect("solves")
        .mean_queue_delay;
        let _ = writeln!(
            s,
            "{:>6.2} {:>12.4} {:>10.4} {:>8} {:>12.0} {:>12.4} {:>10}",
            pt.rho, pt.mean_delay, pt.std_error, pt.measured, pt.throughput, chain, pt.violations
        );
    }
    if points.iter().any(|p| p.chaos.is_some()) {
        let _ = writeln!(
            s,
            "Chaos accounting (lease {} ms):",
            CHAOS_LEASE.as_millis()
        );
        let _ = writeln!(
            s,
            "{:>6} {:>8} {:>8} {:>10} {:>12} {:>8}",
            "rho", "crashed", "stalled", "reclaimed", "post grants", "leaked"
        );
        for pt in points {
            let Some(c) = pt.chaos else { continue };
            let _ = writeln!(
                s,
                "{:>6.2} {:>8} {:>8} {:>10} {:>12} {:>8}",
                pt.rho, c.crashed, c.stalled, c.reclaimed, c.post_chaos_grants, c.leaked
            );
        }
    }
    s
}

/// Outcome of a [`run`] invocation.
#[derive(Debug)]
pub struct RunSummary {
    /// Whether the predictions artifact was resumed from disk.
    pub resumed_predictions: bool,
    /// Total exclusivity violations across the measured sweep (must be 0).
    pub violations: u64,
    /// Total resources/grants leaked through shutdown across chaos-mode
    /// points (must be 0; always 0 for healthy runs).
    pub leaked: u64,
}

const PREDICTIONS: &str = "broker_predictions";
const MEASURED: &str = "broker_measured";
const MANIFEST: &str = "broker_manifest.json";

/// Runs the benchmark end to end: predictions (resume-skippable, atomic,
/// digest-recorded in `broker_manifest.json`) then the measured sweep
/// (always recomputed — it is timing data). Artifacts land under
/// [`output::output_dir`] and the manifest is checkpointed after each leg.
///
/// # Errors
///
/// [`HarnessError::Io`] when an artifact or the manifest cannot be
/// persisted.
pub fn run(
    cfg: &BrokerBenchConfig,
    quality: &RunQuality,
    resume: bool,
) -> Result<RunSummary, HarnessError> {
    let dir = output::output_dir();
    let manifest_path = dir.join(MANIFEST);
    let mut manifest = Manifest::open(&manifest_path, &cfg.fingerprint(quality), resume);

    let resumed = manifest.reusable(&dir, PREDICTIONS, PREDICTIONS);
    let resumed_predictions = resumed.is_some();
    if let Some((text, _)) = resumed {
        print!("{text}");
        eprintln!("resume: {PREDICTIONS} digests match; skipped recompute");
    } else {
        let start = Instant::now();
        let e = predictions_experiment(cfg, quality);
        let text = output::render(&e);
        let csv = e.to_csv();
        print!("{text}");
        output::persist_in(&dir, PREDICTIONS, &text, Some(&csv))?;
        let entry = ManifestEntry::ok(PREDICTIONS, &text, Some(&csv), start.elapsed());
        manifest.record(entry, &manifest_path)?;
    }

    let start = Instant::now();
    let points = measure(cfg, quality);
    let text = measured_table(cfg, &points);
    print!("{text}");
    output::persist_in(&dir, MEASURED, &text, None)?;
    let entry = ManifestEntry::ok(MEASURED, &text, None, start.elapsed());
    manifest.record(entry, &manifest_path)?;

    Ok(RunSummary {
        resumed_predictions,
        violations: points.iter().map(|p| p.violations).sum(),
        leaked: points
            .iter()
            .filter_map(|p| p.chaos)
            .map(|c| c.leaked)
            .sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_survive_an_empty_command_line() {
        let cfg = BrokerBenchConfig::try_from_args(&args(&["bin"])).expect("defaults");
        assert_eq!(cfg, BrokerBenchConfig::default());
    }

    #[test]
    fn all_flags_parse_in_both_spellings() {
        let cfg = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--threads",
            "4",
            "--duration-ms=250",
            "--rho",
            "0.3,0.7",
        ]))
        .expect("valid flags");
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.duration_ms, 250);
        assert_eq!(cfg.rho, vec![0.3, 0.7]);
        let eq = BrokerBenchConfig::try_from_args(&args(&["bin", "--threads=4"])).expect("eq");
        assert_eq!(eq.threads, 4);
    }

    #[test]
    fn undeclared_flags_are_rejected_and_harness_flags_accepted() {
        for bad in [
            &["--bogusflag"][..],
            &["--thread", "4"],
            &["--full=1"],
            &["4"],
        ] {
            let mut line = vec!["bin"];
            line.extend_from_slice(bad);
            let err = BrokerBenchConfig::try_from_args(&args(&line)).expect_err("undeclared");
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string()
                    .starts_with(&format!("cannot parse {:?}", bad[0])),
                "error must name the argument: {err}"
            );
        }
        let cfg = BrokerBenchConfig::try_from_args(&args(&[
            "bin", "--jobs", "2", "--full", "--resume", "--jobs=3",
        ]))
        .expect("RunQuality's flags and --resume are accepted");
        assert_eq!(cfg, BrokerBenchConfig::default());
    }

    #[test]
    fn malformed_threads_is_a_typed_actionable_error() {
        for bad in ["zero", "0", "65", "-3", ""] {
            let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--threads", bad]))
                .expect_err("must reject");
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string().contains("--threads"),
                "error must name the flag: {err}"
            );
        }
        let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--threads"]))
            .expect_err("missing value");
        assert!(err.to_string().contains("--threads"));
    }

    #[test]
    fn malformed_duration_is_a_typed_actionable_error() {
        for bad in ["soon", "0", "-1", "1.5"] {
            let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--duration-ms", bad]))
                .expect_err("must reject");
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string().contains("--duration-ms"),
                "error must name the flag: {err}"
            );
        }
    }

    #[test]
    fn malformed_rho_is_a_typed_actionable_error() {
        for bad in ["", "1.0", "0", "0.5,nope", "0.2,,0.8", "-0.1"] {
            let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--rho", bad]))
                .expect_err(&format!("must reject {bad:?}"));
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string().contains("--rho"),
                "error must name the flag: {err}"
            );
        }
    }

    #[test]
    fn shards_flag_parses_and_scales_the_pool() {
        let cfg =
            BrokerBenchConfig::try_from_args(&args(&["bin", "--shards", "2"])).expect("valid");
        assert_eq!(cfg.shards, 2);
        assert_eq!(cfg.total_resources(), 2 * RESOURCES);
        let eq = BrokerBenchConfig::try_from_args(&args(&["bin", "--shards=4"])).expect("eq");
        assert_eq!(eq.shards, 4);
        let default = BrokerBenchConfig::default();
        assert_eq!(default.shards, 1);
        assert_eq!(default.total_resources(), RESOURCES);
    }

    #[test]
    fn malformed_shards_is_a_typed_actionable_error() {
        for bad in ["zero", "0", "9", "-1", "1.5", ""] {
            let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--shards", bad]))
                .expect_err(&format!("must reject {bad:?}"));
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string().contains("--shards"),
                "error must name the flag: {err}"
            );
        }
        let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--shards"]))
            .expect_err("missing value");
        assert!(err.to_string().contains("--shards"));
    }

    #[test]
    fn sharded_measured_leg_grants_cleanly_across_shards() {
        let cfg = BrokerBenchConfig {
            threads: 4,
            duration_ms: 100,
            rho: vec![0.5],
            shards: 2,
            chaos: None,
            ..BrokerBenchConfig::default()
        };
        let q = RunQuality::quick();
        let points = measure(&cfg, &q);
        assert_eq!(points.len(), 1);
        let pt = &points[0];
        assert_eq!(pt.violations, 0, "sharding must not break exclusivity");
        assert!(pt.measured > 0, "the sharded sweep must grant");
    }

    #[test]
    fn sharded_chaos_leg_reclaims_across_shards_without_leaking() {
        let cfg = BrokerBenchConfig {
            threads: 4,
            duration_ms: 150,
            rho: vec![0.4],
            shards: 2,
            chaos: Some(ChaosSpec::parse("kill=0.25,stall=0.25,seed=11").expect("valid")),
            ..BrokerBenchConfig::default()
        };
        let q = RunQuality::quick();
        let points = measure(&cfg, &q);
        let pt = &points[0];
        assert_eq!(pt.violations, 0, "chaos must not break exclusivity");
        let c = pt.chaos.expect("chaos accounting present");
        assert_eq!(c.crashed, 1, "kill=0.25 of 4 workers is one crash");
        assert!(c.reclaimed >= 1, "the dead worker's lease must come back");
        assert_eq!(c.leaked, 0, "sharded shutdown must recover every slot");
        assert!(c.post_chaos_grants > 0, "the sweep must outlive the chaos");
    }

    #[test]
    fn net_flags_parse_in_both_spellings() {
        let cfg = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--connect",
            "self",
            "--tenants",
            "4",
            "--deadline-ms=50",
        ]))
        .expect("valid net flags");
        assert_eq!(cfg.connect, Some(NetTarget::SelfServe));
        assert_eq!(cfg.tenants, 4);
        assert_eq!(cfg.deadline_ms, 50);

        let cfg = BrokerBenchConfig::try_from_args(&args(&["bin", "--connect=127.0.0.1:7070"]))
            .expect("addr target");
        assert_eq!(
            cfg.connect,
            Some(NetTarget::Addr("127.0.0.1:7070".parse().expect("addr")))
        );

        let cfg = BrokerBenchConfig::try_from_args(&args(&["bin", "--serve", "127.0.0.1:0"]))
            .expect("serve addr");
        assert_eq!(cfg.serve, Some("127.0.0.1:0".parse().expect("addr")));

        let default = BrokerBenchConfig::default();
        assert_eq!(default.serve, None);
        assert_eq!(default.connect, None);
        assert_eq!(default.tenants, 3);
        assert_eq!(default.deadline_ms, 100);
    }

    #[test]
    fn malformed_net_flags_are_typed_actionable_errors() {
        for (flag, bads) in [
            ("--serve", &["nowhere", "127.0.0.1", ":x", ""][..]),
            ("--connect", &["myself", "127.0.0.1", ""][..]),
            ("--tenants", &["0", "9", "many", "-1", ""][..]),
            ("--deadline-ms", &["0", "soon", "-5", "1.5", ""][..]),
        ] {
            for bad in bads {
                let err = BrokerBenchConfig::try_from_args(&args(&["bin", flag, bad]))
                    .expect_err(&format!("must reject {flag} {bad:?}"));
                assert!(matches!(err, ConfigError::Parse { .. }));
                assert!(
                    err.to_string().contains(flag),
                    "error must name the flag: {err}"
                );
            }
            let err =
                BrokerBenchConfig::try_from_args(&args(&["bin", flag])).expect_err("missing value");
            assert!(err.to_string().contains(flag));
        }
    }

    #[test]
    fn serve_and_connect_are_mutually_exclusive() {
        let err = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--serve",
            "127.0.0.1:0",
            "--connect",
            "self",
        ]))
        .expect_err("must reject both modes at once");
        assert!(matches!(err, ConfigError::Parse { .. }));
        assert!(err.to_string().contains("--serve"));
        assert!(err.to_string().contains("--connect"));
    }

    #[test]
    fn wire_chaos_requires_the_networked_mode() {
        let err = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--chaos",
            "kill=0.25,trunc=0.25,seed=3",
        ]))
        .expect_err("trunc without --connect must be rejected");
        assert!(matches!(err, ConfigError::Parse { .. }));
        assert!(
            err.to_string().contains("trunc"),
            "error must name the wire fault: {err}"
        );

        let ok = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--connect",
            "self",
            "--chaos",
            "kill=0.25,trunc=0.125,junk=0.125,seed=3",
        ]))
        .expect("wire chaos is valid in net mode");
        let spec = ok.chaos.expect("chaos set");
        assert_eq!(spec.trunc, 0.125);
        assert_eq!(spec.junk, 0.125);
    }

    #[test]
    fn chaos_flag_parses_and_its_absence_is_healthy() {
        let cfg = BrokerBenchConfig::try_from_args(&args(&[
            "bin",
            "--chaos",
            "kill=0.25,stall=0.125,seed=7",
        ]))
        .expect("valid spec");
        let spec = cfg.chaos.expect("chaos set");
        assert_eq!(spec.kill, 0.25);
        assert_eq!(spec.stall, 0.125);
        assert_eq!(spec.seed, 7);

        let joined =
            BrokerBenchConfig::try_from_args(&args(&["bin", "--chaos=kill=0.1"])).expect("valid");
        assert_eq!(joined.chaos.expect("set").kill, 0.1);

        // No flag: the healthy driver.
        let healthy = BrokerBenchConfig::try_from_args(&args(&["bin"])).expect("valid");
        assert!(healthy.chaos.is_none());
    }

    #[test]
    fn malformed_chaos_is_a_typed_actionable_error() {
        for bad in ["", "kill=2", "bogus=1", "mtbf=40", "kill=0.6,stall=0.6"] {
            let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--chaos", bad]))
                .expect_err(&format!("must reject {bad:?}"));
            assert!(matches!(err, ConfigError::Parse { .. }));
            assert!(
                err.to_string().contains("--chaos"),
                "error must name the flag: {err}"
            );
        }
        let err = BrokerBenchConfig::try_from_args(&args(&["bin", "--chaos"]))
            .expect_err("missing value");
        assert!(err.to_string().contains("--chaos"));
    }

    #[test]
    fn chaos_measured_leg_reclaims_and_keeps_granting() {
        let cfg = BrokerBenchConfig {
            threads: 4,
            duration_ms: 150,
            rho: vec![0.4],
            shards: 1,
            chaos: Some(ChaosSpec::parse("kill=0.25,stall=0.25,seed=11").expect("valid")),
            ..BrokerBenchConfig::default()
        };
        let q = RunQuality::quick();
        let points = measure(&cfg, &q);
        assert_eq!(points.len(), 1);
        let pt = &points[0];
        assert_eq!(pt.violations, 0, "chaos must not break exclusivity");
        let c = pt.chaos.expect("chaos accounting present");
        assert_eq!(c.crashed, 1, "kill=0.25 of 4 workers is one crash");
        assert_eq!(c.stalled, 1, "stall=0.25 of 4 workers is one stall");
        assert!(c.reclaimed >= 1, "the dead worker's lease must come back");
        assert_eq!(c.leaked, 0, "chaos shutdown must recover every resource");
        assert!(c.post_chaos_grants > 0, "the sweep must outlive the chaos");
    }

    #[test]
    fn discipline_table_builds_every_layout_and_runs_clean() {
        let names: Vec<&str> = DISCIPLINES.iter().map(|d| d.name).collect();
        assert_eq!(names, ["sbus", "xbar_token", "omega"]);
        let window = Duration::from_millis(20);
        let layouts = [Layout::Plain, Layout::Sharded(1), Layout::Sharded(2)];
        let leases = [None, Some(CHAOS_LEASE)];
        for d in &DISCIPLINES {
            for (layout, lease) in layouts.into_iter().flat_map(|l| leases.map(|e| (l, e))) {
                let broker = d.broker(4, 2, layout, lease);
                assert_eq!(broker.workers(), 4, "{} {layout:?}", d.name);
                assert_eq!(broker.resources(), 2, "{} {layout:?}", d.name);
                let (rate, chaos) =
                    saturated_grants_per_sec(d.name, broker.as_ref(), Duration::ZERO, window, None);
                assert!(rate > 0.0, "{} {layout:?} never granted", d.name);
                assert!(chaos.is_none());
                assert_eq!(
                    broker.available_resources(),
                    broker.resources(),
                    "{} {layout:?} leaked a resource",
                    d.name
                );
            }
        }
    }

    #[test]
    fn lambda_tracks_rho_through_the_pipeline_capacity() {
        let cfg = BrokerBenchConfig::default();
        let cap = saturation_capacity();
        assert!(cap > 0.0 && cap < MU_N, "capacity below the bare bus rate");
        let lam = cfg.lambda_at(0.5);
        assert!((lam * cfg.threads as f64 - 0.5 * cap).abs() < 1e-12);
    }

    #[test]
    fn predictions_are_deterministic_across_jobs() {
        let cfg = BrokerBenchConfig {
            rho: vec![0.2, 0.5],
            ..BrokerBenchConfig::default()
        };
        let q = RunQuality {
            warmup: 100,
            measured: 500,
            reps: 2,
            ..RunQuality::quick()
        };
        let a = predictions_experiment(&cfg, &RunQuality { jobs: 1, ..q });
        let b = predictions_experiment(&cfg, &RunQuality { jobs: 4, ..q });
        assert_eq!(
            a.to_csv(),
            b.to_csv(),
            "worker count must not change results"
        );
        assert_eq!(output::render(&a), output::render(&b));
    }

    #[test]
    fn fingerprint_tracks_sweep_and_quality() {
        let cfg = BrokerBenchConfig::default();
        let q = RunQuality::quick();
        let base = cfg.fingerprint(&q);
        let other = BrokerBenchConfig {
            threads: 5,
            ..cfg.clone()
        };
        assert_ne!(base, other.fingerprint(&q));
        assert_ne!(base, cfg.fingerprint(&RunQuality { seed: 7, ..q }));
        // jobs never changes artifacts, so it must not change the print.
        assert_eq!(base, cfg.fingerprint(&RunQuality { jobs: 9, ..q }));
    }
}
