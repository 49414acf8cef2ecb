//! Ablation: bus arbitration policy (fixed-priority vs random vs RR).
fn main() {
    rsin_bench::suite::run_task("ablation_arbiter");
}
