//! Ablation: Omega vs indirect binary n-cube wiring.
fn main() {
    rsin_bench::suite::run_task("ablation_wiring");
}
