//! Regenerates Table I: the crossbar cell truth table.
fn main() {
    rsin_bench::suite::run_task("table1");
}
