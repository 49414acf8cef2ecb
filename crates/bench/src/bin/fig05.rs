//! Regenerates Fig. 5: single-shared-bus delay, µ_s/µ_n = 1.0 (analytic
//! curves plus a simulation overlay of the 16-partition system).
fn main() {
    rsin_bench::suite::run_task("fig05");
}
