//! Regenerates the Section V blocking-probability comparison.
fn main() {
    rsin_bench::suite::run_task("blocking");
}
