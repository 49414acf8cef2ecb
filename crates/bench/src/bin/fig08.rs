//! Regenerates Fig. 8: crossbar delay, µ_s/µ_n = 1.0.
fn main() {
    rsin_bench::suite::run_task("fig08");
}
