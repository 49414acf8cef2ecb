//! Runs the runtime-broker benchmark: model predictions (deterministic,
//! resumable via `broker_manifest.json`) plus a measured sweep of the SBUS
//! broker under real worker threads — or, with `--serve`/`--connect`, the
//! networked front-end and its multi-connection wire harness, whose
//! deterministic plan is resumable via its own `net_manifest.json`.
//!
//! ```text
//! cargo run --release -p rsin-bench --bin broker_bench -- \
//!     --threads 6 --duration-ms 400 --rho 0.2,0.5,0.8 \
//!     [--chaos kill=0.25,stall=0.125,seed=7[,mtbf=40,mttr=8]] \
//!     [--jobs N] [--resume]
//!
//! # networked front-end: serve on a port (until stdin closes) ...
//! cargo run --release -p rsin-bench --bin broker_bench -- \
//!     --serve 127.0.0.1:7070 --threads 8 --shards 2 --tenants 3
//! # ... or drive a server (`self` spins one up in-process):
//! cargo run --release -p rsin-bench --bin broker_bench -- \
//!     --connect self --threads 8 --shards 2 --tenants 3 --deadline-ms 100 \
//!     [--chaos kill=0.25,stall=0.125,trunc=0.125,junk=0.125,seed=7]
//! ```
//!
//! `--chaos` (or the `RSIN_BROKER_CHAOS` environment variable) runs the
//! measured sweep under the chaos-hardened driver: seeded client crashes
//! and stalls, optional stochastic resource outages, leases reclaimed by
//! the supervisor. In the networked mode `kill=`/`stall=` become
//! connection resets and half-open stalls, and `trunc=`/`junk=` add
//! wire-level truncated frames and byte garbage (those two are net-only).
//!
//! Exit codes: 0 on success, 1 when an artifact cannot be persisted, the
//! exclusivity audit flags a violation, a chaos run leaks a resource, or a
//! networked run never grants; 2 on a malformed flag (including a
//! malformed chaos spec).

use rsin_bench::broker_bench::{self, BrokerBenchConfig};
use rsin_bench::netbench;
use rsin_bench::RunQuality;

fn main() {
    let quality = RunQuality::from_args();
    let cfg = BrokerBenchConfig::from_args();
    let resume = std::env::args().any(|a| a == "--resume");

    if cfg.serve.is_some() {
        match netbench::serve(&cfg) {
            Ok(report) => {
                if report.violations > 0 || report.leaked > 0 {
                    eprintln!(
                        "broker_bench: FAILED — serve shutdown with {} violation(s), {} \
                         leaked slot(s)",
                        report.violations, report.leaked
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "broker_bench: serve ok ({} grants, {} protocol errors)",
                    report.counters.grants, report.counters.protocol_errors
                );
            }
            Err(e) => {
                eprintln!("broker_bench: FAILED — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if cfg.connect.is_some() {
        match netbench::run_net(&cfg, &quality, resume) {
            Ok(summary) => {
                if summary.violations > 0 {
                    eprintln!(
                        "broker_bench: FAILED — {} exclusivity violation(s) on the \
                         server-side ledger",
                        summary.violations
                    );
                    std::process::exit(1);
                }
                if summary.leaked > 0 {
                    eprintln!(
                        "broker_bench: FAILED — {} slot(s) leaked through server shutdown",
                        summary.leaked
                    );
                    std::process::exit(1);
                }
                if summary.grants == 0 {
                    eprintln!("broker_bench: FAILED — the networked sweep never granted");
                    std::process::exit(1);
                }
                eprintln!(
                    "broker_bench: net ok ({} grants; plan {})",
                    summary.grants,
                    if summary.resumed_plan {
                        "resumed"
                    } else {
                        "computed"
                    }
                );
            }
            Err(e) => {
                eprintln!("broker_bench: FAILED — {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    match broker_bench::run(&cfg, &quality, resume) {
        Ok(summary) => {
            if summary.violations > 0 {
                eprintln!(
                    "broker_bench: FAILED — {} exclusivity violation(s) in the measured sweep",
                    summary.violations
                );
                std::process::exit(1);
            }
            if summary.leaked > 0 {
                eprintln!(
                    "broker_bench: FAILED — {} resource(s)/grant(s) leaked through \
                     chaos shutdown",
                    summary.leaked
                );
                std::process::exit(1);
            }
            eprintln!(
                "broker_bench: ok (predictions {})",
                if summary.resumed_predictions {
                    "resumed"
                } else {
                    "computed"
                }
            );
        }
        Err(e) => {
            eprintln!("broker_bench: FAILED — {e}");
            std::process::exit(1);
        }
    }
}
