//! Regenerates Fig. 12: Omega delay, µ_s/µ_n = 0.1.
fn main() {
    rsin_bench::suite::run_task("fig12");
}
