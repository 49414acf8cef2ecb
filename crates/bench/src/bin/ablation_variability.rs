//! Ablation: service-time distribution sensitivity.
fn main() {
    rsin_bench::suite::run_task("ablation_variability");
}
