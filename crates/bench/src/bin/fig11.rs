//! Regenerates the Fig. 11 distributed-scheduling walkthrough.
fn main() {
    rsin_bench::suite::run_task("fig11");
}
