//! Cost-aware provisioning search over the `p / NET / r` configuration
//! space: per-`p` legs, Pareto frontier artifacts, and a digest-validated
//! resumable manifest.
//!
//! ```text
//! cargo run --release -p rsin-bench --bin provision -- \
//!     --p 16,64,1024 --rho 0.3 --ratio 0.1 --target 1.0 \
//!     [--families sbus,xbar,omega,cube,clx,mlomega] [--max-r 64] \
//!     [--cost-resource 8] [--cost-switch-point 1] [--cost-bus-tap 1] \
//!     [--no-confirm] [--fault-recheck] [--full] [--jobs N] [--resume]
//! ```
//!
//! Artifacts land in `RSIN_OUTPUT_DIR` (default `target/experiments`):
//! `provision_p<p>.txt` (the report), `provision_p<p>.csv` (the frontier),
//! and `provision_manifest.json` (the checkpoint `--resume` validates by
//! digest before skipping a leg).
//!
//! Exit codes: 0 on success, 1 when a leg fails or an artifact cannot be
//! persisted, 2 on a malformed flag.

use rsin_bench::output;
use rsin_bench::provision_bench::{self, ProvisionConfig};

fn main() {
    let cfg = ProvisionConfig::from_args();
    let dir = output::output_dir();
    match provision_bench::run(&cfg, &dir) {
        Ok(summary) => {
            for leg in &summary.legs {
                if leg.resumed {
                    eprintln!("provision: {} resumed (digest-valid checkpoint)", leg.name);
                } else {
                    eprintln!(
                        "provision: {} {} ({} of {} configs evaluated, {} pruned{})",
                        leg.name,
                        leg.winner.as_deref().unwrap_or("no feasible config"),
                        leg.evaluated,
                        leg.total_configs,
                        leg.pruned,
                        match (leg.confirmed, leg.agrees) {
                            (Some(true), Some(true)) => ", DES-confirmed",
                            // The analytic search decomposes shared fabrics
                            // into independent per-bus chains; the simulated
                            // system meeting the target faster than predicted
                            // is the expected direction of that approximation.
                            (Some(true), _) => ", DES-confirmed (analytic conservative)",
                            (Some(false), _) => ", DES REFUTES (target missed)",
                            (None, _) => "",
                        }
                    );
                }
            }
            if summary.legs.iter().any(|l| l.confirmed == Some(false)) {
                eprintln!("provision: FAILED — DES found a winner missing its delay target");
                std::process::exit(1);
            }
            eprintln!(
                "provision: ok ({} legs, {} resumed, {:.1}s; artifacts in {})",
                summary.legs.len(),
                summary.resumed(),
                summary.wall_seconds,
                dir.display()
            );
        }
        Err(e) => {
            eprintln!("provision: FAILED — {e}");
            std::process::exit(1);
        }
    }
}
