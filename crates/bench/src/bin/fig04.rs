//! Regenerates Fig. 4: single-shared-bus delay, µ_s/µ_n = 0.1 (analytic
//! curves plus a simulation overlay of the 16-partition system).
fn main() {
    rsin_bench::suite::run_task("fig04");
}
