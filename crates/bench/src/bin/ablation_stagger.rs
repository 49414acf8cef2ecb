//! Ablation: Omega admission discipline (simultaneous vs staggered).
fn main() {
    rsin_bench::suite::run_task("ablation_stagger");
}
