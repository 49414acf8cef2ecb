//! Regenerates Fig. 13: Omega delay, µ_s/µ_n = 1.0.
fn main() {
    rsin_bench::suite::run_task("fig13");
}
