//! Multiple resource types — the paper's Section VII extension in action.
//!
//! A 16-port Omega network hosts two kinds of accelerator: FFT engines and
//! sort engines. Requests carry a type number, status is tracked per type,
//! and each request is routed only toward ports of its type. We measure:
//!
//! 1. the pooling penalty — the same hardware split into two typed pools
//!    queues longer than one universal pool;
//! 2. the placement question the paper leaves open — blocked versus
//!    interleaved type layouts.
//!
//! Run with `cargo run --example typed_pool`.

use rsin::core::typed::{simulate_typed, TypedWorkload};
use rsin::core::{SimOptions, Workload};
use rsin::des::SimRng;
use rsin::omega::{Admission, OmegaNetwork, Placement};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = SimOptions {
        warmup_tasks: 2_000,
        measured_tasks: 30_000,
    };
    // 16 processors call accelerators; transmission is 10x faster than
    // the accelerator computation.
    let base = Workload::new(0.5, 10.0, 1.0)?;

    println!("16x16 Omega, 16 ports x 1 resource, lambda = 0.5 per processor\n");

    // --- pooling penalty --------------------------------------------------
    let pooled = {
        let w = TypedWorkload::new(base, vec![1.0])?;
        let mut net = OmegaNetwork::typed(1, 16, 1, 1, Placement::Blocked, Admission::Simultaneous);
        let mut rng = SimRng::new(21);
        simulate_typed(&mut net, &w, &opts, &mut rng).normalized_delay(&base)
    };
    println!("one universal pool (16 candidates/task) : delay {pooled:.4}");

    let w2 = TypedWorkload::new(base, vec![0.5, 0.5])?;
    for (placement, name) in [
        (Placement::Blocked, "two typed pools, blocked layout    "),
        (
            Placement::Interleaved,
            "two typed pools, interleaved layout",
        ),
    ] {
        let mut net = OmegaNetwork::typed(1, 16, 1, 2, placement, Admission::Simultaneous);
        let mut rng = SimRng::new(21);
        let report = simulate_typed(&mut net, &w2, &opts, &mut rng);
        println!(
            "{name}: delay {:.4}  (FFT {:.4}, sort {:.4})",
            report.normalized_delay(&base),
            report.per_type_delay[0].mean(),
            report.per_type_delay[1].mean(),
        );
    }

    // --- asymmetric demand -------------------------------------------------
    println!("\nasymmetric demand (80% FFT / 20% sort), equal capacity:");
    let w_skew = TypedWorkload::new(base, vec![0.8, 0.2])?;
    let mut net = OmegaNetwork::typed(1, 16, 1, 2, Placement::Interleaved, Admission::Simultaneous);
    let mut rng = SimRng::new(22);
    let report = simulate_typed(&mut net, &w_skew, &opts, &mut rng);
    println!(
        "  FFT delay {:.4} vs sort delay {:.4} — provisioning per type matters\n  \
         (the paper: \"the problem on the number and placement of each type of\n  \
         resources in the network is still open\")",
        report.per_type_delay[0].mean(),
        report.per_type_delay[1].mean(),
    );
    Ok(())
}
