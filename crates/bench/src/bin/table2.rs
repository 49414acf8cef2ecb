//! Regenerates Table II plus the Section VI equal-cost comparison.
fn main() {
    rsin_bench::suite::run_task("table2");
}
