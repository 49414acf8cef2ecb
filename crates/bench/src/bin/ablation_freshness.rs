//! Ablation: availability-register freshness (continuous vs stale).
fn main() {
    rsin_bench::suite::run_task("ablation_freshness");
}
