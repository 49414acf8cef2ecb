//! Regenerates the Section II Omega mapping example.
fn main() {
    rsin_bench::suite::run_task("mapping_example");
}
