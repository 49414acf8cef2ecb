//! Regenerates the fault-injection resilience experiment: delivered
//! throughput and normalized delay versus failed elements, distributed
//! 16×16 Omega versus the centralized-scheduler baseline.
use rsin_bench::resilience;
use rsin_bench::suite::{emit_or_exit, SuiteOutput};

fn main() {
    let points = resilience::sweep(&rsin_bench::RunQuality::from_args());
    emit_or_exit(&[
        SuiteOutput::Figure("resilience", resilience::throughput_experiment(&points)),
        SuiteOutput::Figure("resilience_delay", resilience::delay_experiment(&points)),
        SuiteOutput::Text("resilience_summary", resilience::summary(&points)),
    ]);
}
