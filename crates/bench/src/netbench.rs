//! The networked-broker benchmark leg: `broker_bench --serve` runs a
//! [`NetServer`] front-end over a [`ShardedBroker`]; `--connect ADDR|self`
//! drives one with the multi-connection load harness and emits two
//! artifacts under the experiment output directory:
//!
//! - `net_plan` — the deterministic side: the sweep shape plus the seeded
//!   connection-chaos schedule, byte-identical for a given flag set, so it
//!   participates in the `net_manifest.json` digest gate and `--resume`
//!   skips it when its digest still matches the file on disk. The net leg
//!   keeps its own manifest: the in-process leg's `broker_manifest.json`
//!   carries a different fingerprint, so sharing one file would let either
//!   leg discard the other's checkpoint.
//! - `net_measured` — the wire side (real TCP, wall clock): grant latency
//!   quantiles, saturated grants/sec, the per-tenant-class breakdown, and
//!   (in `self` mode) the server's own counters, ledger verdict, and leak
//!   inventory. Timing data, always recomputed.
//!
//! `--connect self` is the self-contained mode: an in-process server on a
//! loopback ephemeral port, driven and then shut down, which is the only
//! mode that can gate on the *server-side* exclusivity ledger — CI uses
//! it for the net-smoke sweep and the seeded connection-chaos leg. A
//! `--chaos` spec's `kill=`/`stall=` map to connection resets and
//! half-open stalls; `trunc=`/`junk=` inject wire-level garbage.

use crate::broker_bench::{BrokerBenchConfig, NetTarget, CHAOS_LEASE};
use crate::manifest::{Manifest, ManifestEntry};
use crate::output;
use crate::RunQuality;
use rsin_broker::net::{
    run_net_load, ConnChaos, NetChaosPlan, NetLoadConfig, NetLoadReport, NetServer,
    NetServerConfig, NetServerReport,
};
use rsin_broker::ShardedBroker;
use rsin_core::HarnessError;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const NET_PLAN: &str = "net_plan";
const NET_MEASURED: &str = "net_measured";
const MANIFEST: &str = "net_manifest.json";

/// Connection slots the server offers per configured client, so clients
/// reconnecting after chaos (their dead predecessor not yet culled) are
/// not refused at accept.
const SLOT_HEADROOM: usize = 2;

/// Half-open stalls injected by the chaos spec outlast the lease by this
/// factor, so only the supervisor can recover the grant.
const STALL_LEASES: u32 = 3;

/// Builds the wire-side load configuration from the benchmark flags. The
/// chaos window sits inside the first half of the run so reclamation and
/// recovery happen on camera.
#[must_use]
pub fn net_load_config(cfg: &BrokerBenchConfig, quality: &RunQuality) -> NetLoadConfig {
    let window = Duration::from_millis(cfg.duration_ms);
    let chaos = match &cfg.chaos {
        Some(spec) => NetChaosPlan::from_spec(
            spec,
            cfg.threads,
            (window.mul_f64(0.1), window.mul_f64(0.5)),
            STALL_LEASES * CHAOS_LEASE,
        ),
        None => NetChaosPlan::new(),
    };
    NetLoadConfig {
        clients: cfg.threads,
        tenants: cfg.tenants,
        window,
        deadline: Some(Duration::from_millis(cfg.deadline_ms)),
        hold: Duration::from_micros(200),
        mean_think: None,
        seed: quality.seed,
        chaos,
        ..NetLoadConfig::default()
    }
}

/// Stable fingerprint of everything that determines the `net_plan`
/// artifact; recorded in `net_manifest.json` so `--resume` against a
/// different sweep recomputes instead of mixing configurations.
#[must_use]
pub fn net_fingerprint(cfg: &BrokerBenchConfig, quality: &RunQuality) -> String {
    let chaos = match &cfg.chaos {
        Some(s) => format!(
            "kill={},stall={},trunc={},junk={},seed={}",
            s.kill, s.stall, s.trunc, s.junk, s.seed
        ),
        None => "none".into(),
    };
    format!(
        "net clients={} tenants={} deadline_ms={} window_ms={} shards={} r={} chaos={} | {}",
        cfg.threads,
        cfg.tenants,
        cfg.deadline_ms,
        cfg.duration_ms,
        cfg.shards,
        cfg.total_resources(),
        chaos,
        quality.fingerprint()
    )
}

/// Renders the deterministic plan artifact: the sweep shape and the full
/// seeded chaos schedule. Byte-identical for a given flag set.
#[must_use]
pub fn plan_text(cfg: &BrokerBenchConfig, load: &NetLoadConfig) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Networked broker plan: {} clients over {} tenant class(es), pool {} in {} shard(s)",
        load.clients,
        load.tenants,
        cfg.total_resources(),
        cfg.shards
    );
    let _ = writeln!(
        s,
        "deadline {} ms, window {} ms, lease {} ms",
        cfg.deadline_ms,
        cfg.duration_ms,
        CHAOS_LEASE.as_millis()
    );
    if load.chaos.is_empty() {
        let _ = writeln!(s, "chaos: none scheduled");
    } else {
        let _ = writeln!(
            s,
            "chaos: {} scheduled connection fault(s)",
            load.chaos.events().len()
        );
        let _ = writeln!(s, "{:>10} {:>7} kind", "at_us", "client");
        for e in load.chaos.events() {
            let kind = match e.kind {
                ConnChaos::Reset => "reset".to_string(),
                ConnChaos::Stall(d) => format!("stall {} ms", d.as_millis()),
                ConnChaos::Truncate => "truncate".to_string(),
                ConnChaos::Junk => "junk".to_string(),
            };
            let _ = writeln!(s, "{:>10} {:>7} {kind}", e.at.as_micros(), e.client);
        }
    }
    s
}

/// Renders the measured artifact: totals, latency quantiles, the
/// per-tenant-class breakdown, and the server-side verdict when one is
/// available (the `self` mode).
#[must_use]
pub fn measured_table(
    cfg: &BrokerBenchConfig,
    target: &str,
    report: &NetLoadReport,
    server: Option<&NetServerReport>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Networked broker, measured: {target}, {} clients, {} tenant class(es), pool {}",
        report.shards.len(),
        cfg.tenants,
        cfg.total_resources()
    );
    let _ = writeln!(
        s,
        "totals: {} grants ({:.0}/sec), {} shed, {} expired, {} busy, {} reconnects, \
         {} io errors, {} stale releases, {} chaos events",
        report.grants,
        report.grants_per_sec,
        report.rejected_shed,
        report.rejected_expired,
        report.rejected_busy,
        report.reconnects,
        report.io_errors,
        report.stale_releases,
        report.chaos_injected
    );
    let _ = writeln!(
        s,
        "grant latency us: p50 {:.0}  p99 {:.0}  p999 {:.0}  mean {:.0}",
        report.latency_quantile_us(0.50),
        report.latency_quantile_us(0.99),
        report.latency_quantile_us(0.999),
        report.latency.mean()
    );
    let _ = writeln!(
        s,
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "class", "grants", "shed", "expired", "busy", "mean us"
    );
    for class in 0..cfg.tenants {
        let (mut grants, mut shed, mut expired, mut busy) = (0u64, 0u64, 0u64, 0u64);
        let mut latency = rsin_des::stats::Welford::new();
        for shard in report.shards.iter().filter(|sh| sh.tenant == class) {
            grants += shard.grants;
            shed += shard.rejected_shed;
            expired += shard.rejected_expired;
            busy += shard.rejected_busy;
            latency.merge(&shard.latency);
        }
        let _ = writeln!(
            s,
            "{class:>6} {grants:>8} {shed:>8} {expired:>8} {busy:>8} {:>10.0}",
            latency.mean()
        );
    }
    match server {
        Some(r) => {
            let _ = writeln!(
                s,
                "server: {} grants, {} reclaims (disconnect {}, lease {}, shutdown {}), \
                 {} protocol errors, {} violations, {} leaked",
                r.counters.grants,
                r.counters.reclaimed_disconnect
                    + r.counters.reclaimed_lease
                    + r.counters.reclaimed_shutdown,
                r.counters.reclaimed_disconnect,
                r.counters.reclaimed_lease,
                r.counters.reclaimed_shutdown,
                r.counters.protocol_errors,
                r.violations,
                r.leaked
            );
        }
        None => {
            let _ = writeln!(
                s,
                "server: external target — client-side statistics only \
                 (no ledger verdict; use --connect self to audit the server)"
            );
        }
    }
    s
}

/// Drives the load against an in-process loopback server and returns both
/// sides of the story. The server's pool matches the benchmark flags; its
/// connection capacity carries [`SLOT_HEADROOM`]× the client count so
/// post-chaos reconnects are not refused while the dead predecessor
/// awaits culling.
#[must_use]
pub fn measure_self(
    cfg: &BrokerBenchConfig,
    load: &NetLoadConfig,
) -> (NetLoadReport, NetServerReport) {
    let broker = ShardedBroker::sbus_with_lease(
        SLOT_HEADROOM * load.clients,
        cfg.total_resources(),
        cfg.shards,
        CHAOS_LEASE,
    );
    let server_cfg = NetServerConfig {
        tenants: cfg.tenants,
        lease: CHAOS_LEASE,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind("127.0.0.1:0".parse().expect("loopback"), broker, server_cfg)
        .expect("bind loopback ephemeral port");
    let report = run_net_load(server.local_addr(), load);
    (report, server.stop())
}

/// Outcome of a [`run_net`] invocation.
#[derive(Debug)]
pub struct NetRunSummary {
    /// Whether the plan artifact was resumed from disk.
    pub resumed_plan: bool,
    /// Server-side exclusivity violations (0 in external mode, which
    /// cannot observe them).
    pub violations: u64,
    /// Slots still held after shutdown reclamation (0 in external mode).
    pub leaked: u64,
    /// Total grants measured — a run that never grants is broken even
    /// when nothing leaks.
    pub grants: u64,
}

/// Runs the networked benchmark end to end: the deterministic plan
/// (resume-skippable, digest-recorded in `net_manifest.json`) then the
/// measured wire sweep (always recomputed). Artifacts land under
/// [`output::output_dir`].
///
/// # Errors
///
/// [`HarnessError::Io`] when an artifact or the manifest cannot be
/// persisted.
///
/// # Panics
///
/// Panics if `cfg.connect` is `None` — the caller dispatches on it.
pub fn run_net(
    cfg: &BrokerBenchConfig,
    quality: &RunQuality,
    resume: bool,
) -> Result<NetRunSummary, HarnessError> {
    let target = cfg.connect.expect("run_net requires --connect");
    let dir = output::output_dir();
    let manifest_path = dir.join(MANIFEST);
    let mut manifest = Manifest::open(&manifest_path, &net_fingerprint(cfg, quality), resume);
    let load = net_load_config(cfg, quality);

    let resumed = manifest.reusable(&dir, NET_PLAN, NET_PLAN);
    let resumed_plan = resumed.is_some();
    if let Some((text, _)) = resumed {
        print!("{text}");
        eprintln!("resume: {NET_PLAN} digests match; skipped recompute");
    } else {
        let start = Instant::now();
        let text = plan_text(cfg, &load);
        print!("{text}");
        output::persist_in(&dir, NET_PLAN, &text, None)?;
        manifest.record(
            ManifestEntry::ok(NET_PLAN, &text, None, start.elapsed()),
            &manifest_path,
        )?;
    }

    let start = Instant::now();
    let (report, server, label) = match target {
        NetTarget::SelfServe => {
            let (report, server) = measure_self(cfg, &load);
            (
                report,
                Some(server),
                "self (in-process loopback)".to_string(),
            )
        }
        NetTarget::Addr(addr) => (run_net_load(addr, &load), None, format!("{addr}")),
    };
    let text = measured_table(cfg, &label, &report, server.as_ref());
    print!("{text}");
    output::persist_in(&dir, NET_MEASURED, &text, None)?;
    let entry = ManifestEntry::ok(NET_MEASURED, &text, None, start.elapsed());
    manifest.record(entry, &manifest_path)?;

    Ok(NetRunSummary {
        resumed_plan,
        violations: server.as_ref().map_or(0, |r| r.violations),
        leaked: server.as_ref().map_or(0, |r| r.leaked as u64),
        grants: report.grants,
    })
}

/// Runs the `--serve` mode: a networked front-end on `cfg.serve`, alive
/// until stdin reaches EOF (so a driver script holds the pipe open for as
/// long as it needs the server), then a clean shutdown whose report the
/// caller gates on.
///
/// # Errors
///
/// [`HarnessError::Io`] when the listener cannot bind.
///
/// # Panics
///
/// Panics if `cfg.serve` is `None` — the caller dispatches on it.
pub fn serve(cfg: &BrokerBenchConfig) -> Result<NetServerReport, HarnessError> {
    let addr = cfg.serve.expect("serve requires --serve");
    let broker = ShardedBroker::sbus_with_lease(
        SLOT_HEADROOM * cfg.threads,
        cfg.total_resources(),
        cfg.shards,
        CHAOS_LEASE,
    );
    let server_cfg = NetServerConfig {
        tenants: cfg.tenants,
        lease: CHAOS_LEASE,
        ..NetServerConfig::default()
    };
    let server = NetServer::bind(addr, broker, server_cfg).map_err(|e| HarnessError::Io {
        op: "bind",
        path: addr.to_string(),
        message: e.to_string(),
    })?;
    // Stdout so driver scripts can parse the bound (possibly ephemeral)
    // port; everything else in this binary reports on stderr.
    println!("broker_bench: serving on {}", server.local_addr());
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).unwrap_or(0) > 0 {
        sink.clear();
    }
    eprintln!("broker_bench: stdin closed; shutting the server down");
    Ok(server.stop())
}

/// A throwaway loopback server address for tests.
#[cfg(test)]
fn test_cfg() -> BrokerBenchConfig {
    BrokerBenchConfig {
        threads: 4,
        duration_ms: 150,
        shards: 2,
        tenants: 3,
        deadline_ms: 60,
        connect: Some(NetTarget::SelfServe),
        ..BrokerBenchConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsin_broker::ChaosSpec;

    #[test]
    fn plan_text_is_deterministic_and_carries_the_schedule() {
        let mut cfg = test_cfg();
        cfg.chaos =
            Some(ChaosSpec::parse("kill=0.25,stall=0.25,trunc=0.25,junk=0.25,seed=9").expect("ok"));
        let q = RunQuality::quick();
        let a = plan_text(&cfg, &net_load_config(&cfg, &q));
        let b = plan_text(&cfg, &net_load_config(&cfg, &q));
        assert_eq!(a, b, "same flags, same plan bytes");
        assert!(a.contains("4 scheduled connection fault(s)"), "{a}");
        for kind in ["reset", "stall", "truncate", "junk"] {
            assert!(a.contains(kind), "plan must list the {kind} event:\n{a}");
        }
        // The schedule is seeded by the chaos spec (not the harness
        // quality seed, which only drives think-time streams).
        let mut reseeded = cfg.clone();
        reseeded.chaos = Some(
            ChaosSpec::parse("kill=0.25,stall=0.25,trunc=0.25,junk=0.25,seed=10").expect("ok"),
        );
        let other = plan_text(&reseeded, &net_load_config(&reseeded, &q));
        assert_ne!(a, other, "the chaos seed must reshuffle the schedule");
    }

    #[test]
    fn net_fingerprint_tracks_the_wire_config() {
        let cfg = test_cfg();
        let q = RunQuality::quick();
        let base = net_fingerprint(&cfg, &q);
        let mut other = cfg.clone();
        other.tenants = 5;
        assert_ne!(base, net_fingerprint(&other, &q));
        let mut other = cfg.clone();
        other.deadline_ms = 200;
        assert_ne!(base, net_fingerprint(&other, &q));
        assert_ne!(base, net_fingerprint(&cfg, &RunQuality { seed: 7, ..q }));
    }

    #[test]
    fn self_serve_measures_grants_and_stays_clean() {
        let cfg = test_cfg();
        let q = RunQuality::quick();
        let load = net_load_config(&cfg, &q);
        let (report, server) = measure_self(&cfg, &load);
        assert!(report.grants > 0, "the loopback sweep must grant");
        assert_eq!(server.violations, 0, "ledger must stay clean");
        assert_eq!(server.leaked, 0, "no slot may leak");
        let table = measured_table(&cfg, "self", &report, Some(&server));
        assert!(table.contains("p99"), "{table}");
        assert!(table.contains("violations"), "{table}");
    }

    #[test]
    fn self_serve_chaos_reclaims_and_keeps_serving() {
        let mut cfg = test_cfg();
        cfg.duration_ms = 250;
        cfg.chaos =
            Some(ChaosSpec::parse("kill=0.25,stall=0.25,trunc=0.25,junk=0.25,seed=5").expect("ok"));
        let q = RunQuality::quick();
        let load = net_load_config(&cfg, &q);
        let (report, server) = measure_self(&cfg, &load);
        assert_eq!(report.chaos_injected, 4, "every scheduled fault must fire");
        assert!(report.grants > 0, "grants must continue through the chaos");
        assert_eq!(server.violations, 0, "ledger must stay clean under chaos");
        assert_eq!(server.leaked, 0, "every dead connection's grant reclaimed");
    }
}
