//! Regenerates Fig. 7: crossbar delay, µ_s/µ_n = 0.1 (pass --full for
//! publication-quality simulation).
fn main() {
    rsin_bench::suite::run_task("fig07");
}
