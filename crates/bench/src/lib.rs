//! # rsin-bench — experiment harness for the RSIN reproduction
//!
//! One regenerator per figure and table of Wah (1983), exposed both as
//! library functions (so tests can assert the *shapes* the paper reports)
//! and as binaries (so `cargo run -p rsin-bench --bin fig04` reproduces the
//! numbers; add `--full` for publication-quality runs):
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig04` / `fig05` | single-shared-bus delay curves (analytic) |
//! | `fig07` / `fig08` | crossbar delay curves (simulation + approximations) |
//! | `fig12` / `fig13` | Omega delay curves (simulation) |
//! | `table1` | the crossbar cell truth table |
//! | `table2` | the network-selection rule + Section VI comparison |
//! | `blocking` | Section V blocking probabilities (RSIN vs address map) |
//! | `fig11` | the distributed-scheduling walkthrough |
//! | `mapping_example` | the Section II blocking example |
//! | `ablation_arbiter` / `ablation_stagger` | design-choice ablations |
//! | `broker_bench` | runtime-broker sweep cross-checked against the models |
//! | `provision` | cost-aware provisioning search over the config space |
//! | `all` | everything above in sequence |
//!
//! Every figure, table and ablation is composed once, in [`suite`]; its
//! binary is a single [`suite::run_task`] call by artifact name.
//!
//! The `perf_report` binary measures the implementation itself: it times
//! the suite and twelve hot-path kernels on the in-tree [`microbench`]
//! timer and gates the kernels against `BENCH_perf.json` (the comparison
//! lives in [`perfgate`]).
//!
//! The `resilience` binary runs the fault-injection experiment: delivered
//! throughput and normalized delay versus the number of failed network
//! elements, distributed versus centralized scheduling.

#![warn(missing_docs)]

pub mod broker_bench;
pub mod figures;
pub mod flags;
pub mod harness;
pub mod json;
pub mod manifest;
pub mod microbench;
pub mod netbench;
pub mod output;
pub mod perfgate;
pub mod provision_bench;
pub mod quality;
pub mod resilience;
pub mod suite;
pub mod tables;

pub use quality::RunQuality;
