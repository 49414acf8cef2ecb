//! Ablation: typed-resource placement (blocked vs interleaved).
fn main() {
    rsin_bench::suite::run_task("ablation_placement");
}
