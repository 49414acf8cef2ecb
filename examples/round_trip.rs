//! The complete Fig. 1 system: forward RSIN plus the result-return network.
//!
//! Section II routes results back "by a separate address-mapping network
//! with parallel routing since the destination address is known", and then
//! ignores that leg when measuring delay. This example quantifies the
//! justification: how much of the round trip does the return network
//! actually contribute, and when would it start to matter?
//!
//! Run with `cargo run --release --example round_trip`; its stdout is
//! pinned in `round_trip.stdout` next to this file.

use rsin::core::{simulate_round_trip, InstantReturn, SimOptions, SystemConfig, Workload};
use rsin::des::SimRng;
use rsin::omega::{Admission, OmegaNetwork, OmegaReturnPath};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg: SystemConfig = "16/1x16x16 OMEGA/1".parse()?;
    let opts = SimOptions {
        warmup_tasks: 2_000,
        measured_tasks: 25_000,
    };

    println!("16x16 forward Omega RSIN + 16x16 address-mapped return Omega\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>16}",
        "rho", "delay d", "round trip", "return wait", "return share"
    );
    for rho in [0.3, 0.6, 0.85] {
        let w = Workload::for_intensity(&cfg, rho, 0.1)?;
        let mut fwd = OmegaNetwork::from_config(&cfg, Admission::Simultaneous)?;
        let mut ret = OmegaReturnPath::new(16)?;
        let mut rng = SimRng::new(17);
        let report = simulate_round_trip(&mut fwd, &mut ret, &w, w.mu_n(), &opts, &mut rng);
        let rt = report.round_trip.mean();
        let wait = report.return_wait.mean();
        println!(
            "{:>6} {:>12.4} {:>14.4} {:>14.4} {:>15.2}%",
            rho,
            report.queueing_delay.mean(),
            rt,
            wait,
            100.0 * wait / rt,
        );
    }

    // The ideal-return baseline for one load point.
    let w = Workload::for_intensity(&cfg, 0.6, 0.1)?;
    let mut fwd = OmegaNetwork::from_config(&cfg, Admission::Simultaneous)?;
    let mut rng = SimRng::new(17);
    let ideal = simulate_round_trip(&mut fwd, &mut InstantReturn, &w, w.mu_n(), &opts, &mut rng);
    println!(
        "\nwith an ideal (never-blocking) return network at rho = 0.6: round trip {:.4}",
        ideal.round_trip.mean()
    );
    println!(
        "→ the paper's decision to exclude the return leg from d is sound: the\n  \
         return network's waiting contribution stays a tiny share of the trip."
    );
    Ok(())
}
