//! Regenerators for the paper's tables and worked examples: Table I (cell
//! truth table), Table II (network selection), the Section II Omega
//! blocking example, the Fig. 11 distributed-scheduling walkthrough, the
//! Section V blocking-probability comparison, and the Section VI
//! cross-network comparison.

use crate::figures::workload_at;
use crate::quality::RunQuality;
use rsin_core::advisor::{recommend, CostRegime};
use rsin_core::{estimate_delay, SystemConfig};
use rsin_des::SimRng;
use rsin_omega::blocking::{run_blocking_experiment, BlockingExperiment, BlockingResult};
use rsin_omega::{Admission, OmegaNetwork, OmegaState, Placement, StatusFreshness, Wiring};
use rsin_queueing::{SharedBusChain, SharedBusParams};
use rsin_sbus::{Arbitration, SharedBusNetwork};
use rsin_topology::{matching, OmegaTopology};
use rsin_xbar::{Cell, CrossbarNetwork, CrossbarPolicy, Mode};
use std::fmt::Write as _;

/// Renders Table I by exercising the gate-level cell over every input.
#[must_use]
pub fn table1_text() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table I: truth table of the crossbar cell");
    let _ = writeln!(
        out,
        "{:>8} {:>4} {:>4} {:>6} {:>8} {:>6} {:>6}",
        "MODE", "X", "Y", "X_out", "Y_out", "SET", "RESET"
    );
    for (mode, name) in [(Mode::Request, "Request"), (Mode::Reset, "Reset")] {
        for x in [false, true] {
            for y in [false, true] {
                // Table I is stated for a latch that starts off.
                let mut cell = Cell::new();
                let (xo, yo) = cell.step(mode, x, y);
                let set = mode == Mode::Request && cell.is_connected();
                let reset = mode == Mode::Reset && x;
                let _ = writeln!(
                    out,
                    "{:>8} {:>4} {:>4} {:>6} {:>8} {:>6} {:>6}",
                    name,
                    u8::from(x),
                    u8::from(y),
                    u8::from(xo),
                    u8::from(yo),
                    u8::from(set),
                    u8::from(reset),
                );
            }
        }
    }
    out
}

/// Renders Table II (the selection rule) with rationales.
#[must_use]
pub fn table2_text() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Table II: selection of suitable RSIN");
    let _ = writeln!(
        out,
        "{:<28} {:>12}   NETWORK TO BE USED",
        "RELATIVE COSTS", "mu_s/mu_n"
    );
    let rows = [
        (CostRegime::NetworkMuchCheaper, 0.1, "small"),
        (CostRegime::NetworkMuchCheaper, 10.0, "large"),
        (CostRegime::Comparable, 0.1, "small"),
        (CostRegime::Comparable, 10.0, "large"),
        (CostRegime::NetworkMuchDearer, 0.1, "all"),
    ];
    for (cost, ratio, label) in rows {
        let rec = recommend(cost, ratio);
        let _ = writeln!(out, "{:<28} {:>12}   {}", format!("{cost:?}"), label, rec);
        let _ = writeln!(out, "{:<43}rationale: {}", "", rec.rationale());
    }
    out
}

/// One row of the Section VI cross-network comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct ComparisonRow {
    /// Configuration string.
    pub config: String,
    /// Normalized queueing delay.
    pub normalized_delay: f64,
    /// 95% half-width (0 for analytic rows).
    pub half_width: f64,
}

/// Section VI: at comparable network/resource cost, many private buses with
/// extra resources (`16/16x1x1 SBUS/3`) against one-partition-level Omega
/// and crossbar systems (`16/4x4x4 OMEGA/2`, `16/4x4x4 XBAR/2`).
#[must_use]
pub fn section6_comparison(ratio: f64, rho: f64, quality: &RunQuality) -> Vec<ComparisonRow> {
    let w = workload_at(rho, ratio);
    let opts = quality.sim_options();
    let mut rows = Vec::new();

    let chain = SharedBusChain::new(SharedBusParams {
        processors: 1,
        resources: 3,
        lambda: w.lambda(),
        mu_n: w.mu_n(),
        mu_s: w.mu_s(),
    })
    .and_then(|c| c.solve());
    if let Ok(sol) = chain {
        rows.push(ComparisonRow {
            config: "16/16x1x1 SBUS/3".into(),
            normalized_delay: sol.normalized_delay,
            half_width: 0.0,
        });
    }

    let omega_cfg: SystemConfig = "16/4x4x4 OMEGA/2".parse().expect("valid");
    let est = estimate_delay(
        || Box::new(OmegaNetwork::from_config(&omega_cfg, Admission::Simultaneous).expect("omega")),
        &w,
        &opts,
        quality.seed,
        quality.reps,
    );
    rows.push(ComparisonRow {
        config: omega_cfg.to_string(),
        normalized_delay: est.normalized_delay,
        half_width: est.half_width,
    });

    let xbar_cfg: SystemConfig = "16/4x4x4 XBAR/2".parse().expect("valid");
    let est = estimate_delay(
        || {
            Box::new(
                CrossbarNetwork::from_config(&xbar_cfg, CrossbarPolicy::FixedPriority)
                    .expect("xbar"),
            )
        },
        &w,
        &opts,
        quality.seed,
        quality.reps,
    );
    rows.push(ComparisonRow {
        config: xbar_cfg.to_string(),
        normalized_delay: est.normalized_delay,
        half_width: est.half_width,
    });
    rows
}

/// Renders the Section VI comparison as text.
#[must_use]
pub fn section6_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Section VI comparison: equal-cost organizations, normalized delay"
    );
    // The SBUS/3 advantage (1.5x the resources behind private buses)
    // materializes under heavy load, where the shared networks' blockage
    // dominates; at light load pooled resources win instead.
    for (ratio, rho) in [(0.1, 0.8), (1.0, 0.8)] {
        let _ = writeln!(out, "\nmu_s/mu_n = {ratio}, rho = {rho}:");
        for row in section6_comparison(ratio, rho, quality) {
            let _ = writeln!(
                out,
                "  {:<22} {:>10.4} ± {:.4}",
                row.config, row.normalized_delay, row.half_width
            );
        }
    }
    out
}

/// The Section V blocking-probability experiment, over a small sweep of
/// availability probabilities.
#[must_use]
pub fn blocking_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Section V: blocking probability, 8x8 Omega, random requests/resources"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>16} {:>12} {:>16}",
        "p_req", "p_free", "RSIN", "address-map", "RSIN(net)", "addr-map(net)"
    );
    let mut rng = SimRng::new(quality.seed);
    for p in [0.25, 0.5, 0.75] {
        let exp = BlockingExperiment {
            size: 8,
            p_request: p,
            p_free: p,
            trials: quality.trials,
        };
        let res: BlockingResult = run_blocking_experiment(&exp, &mut rng);
        let _ = writeln!(
            out,
            "{:>8.2} {:>8.2} {:>12.4} {:>16.4} {:>12.4} {:>16.4}",
            p, p, res.rsin, res.address_mapping, res.rsin_network, res.address_mapping_network,
        );
    }
    let _ = writeln!(
        out,
        "\npaper's reported values at the 0.5/0.5 point: RSIN ~0.15, address mapping ~0.3\n\
         (the total columns include requests in excess of the free supply, which no\n\
         scheduler can serve; the (net) columns isolate the discipline's own blocking)"
    );
    out
}

/// The Fig. 11 walkthrough: resources R0, R1, R4, R5 available, processors
/// P0, P3, P4, P5 requesting.
#[must_use]
pub fn fig11_text() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Fig. 11: 8x8 Omega distributed scheduling walkthrough"
    );
    let mut net = OmegaState::new(8, 1).expect("8x8");
    for port in [2, 3, 6, 7] {
        net.occupy_resource(port);
    }
    let res = net.resolve(&[0, 3, 4, 5], Admission::Simultaneous);
    let _ = writeln!(out, "requesting processors: P0 P3 P4 P5");
    let _ = writeln!(out, "available resources:   R0 R1 R4 R5");
    for c in &res.granted {
        let links: Vec<String> = c
            .links
            .iter()
            .map(|l| format!("stage{}→wire{}", l.stage, l.wire))
            .collect();
        let _ = writeln!(
            out,
            "  P{} → R{}   via {}",
            c.processor,
            c.port,
            links.join(", ")
        );
    }
    let _ = writeln!(out, "rejected: {:?}", res.rejected);
    let _ = writeln!(
        out,
        "interchange boxes visited: {} total, {:.2} per request (paper: 3.5)",
        res.box_visits,
        res.box_visits as f64 / 4.0
    );
    out
}

/// The Section II mapping example: which processor→resource assignments an
/// 8×8 Omega can realize for requesters {0,1,2} and resources {0,1,2}.
#[must_use]
pub fn mapping_example_text() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Section II: Omega 8x8 mapping example");
    let net = OmegaTopology::new(8).expect("8x8");
    let mappings: [&[(usize, usize)]; 6] = [
        &[(0, 0), (1, 1), (2, 2)],
        &[(0, 1), (1, 0), (2, 2)],
        &[(0, 2), (1, 0), (2, 1)],
        &[(0, 2), (1, 1), (2, 0)],
        &[(0, 0), (1, 2), (2, 1)],
        &[(0, 1), (1, 2), (2, 0)],
    ];
    for m in mappings {
        let ok = matching::mapping_is_conflict_free(&net, m);
        let _ = writeln!(
            out,
            "  {m:?} → {}",
            if ok {
                "realizable (3 allocated)"
            } else {
                "BLOCKED (max 2)"
            }
        );
    }
    let best = matching::max_allocation(&net, &[0, 1, 2], &[0, 1, 2]);
    let _ = writeln!(out, "optimal scheduler allocates: {} of 3", best.len());
    let greedy = matching::greedy_allocation(&net, &[0, 1, 2], &[0, 2, 1]);
    let _ = writeln!(
        out,
        "greedy (resources offered 0,2,1) allocates: {} of 3",
        greedy.len()
    );
    out
}

/// Ablation: SBUS arbitration policies — mean delay and per-processor
/// fairness (delay of processor 0's bus position vs the mean).
#[must_use]
pub fn ablation_arbiter_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: bus arbitration policy (8/1x8x1 SBUS/4, rho=0.5, ratio=0.5)"
    );
    let cfg: SystemConfig = "8/1x8x1 SBUS/4".parse().expect("valid");
    let w = rsin_core::Workload::for_intensity(&cfg, 0.5, 0.5).expect("valid");
    let opts = quality.sim_options();
    for (policy, name) in [
        (Arbitration::FixedPriority, "fixed-priority"),
        (Arbitration::Random, "random (token)"),
        (Arbitration::RoundRobin, "round-robin"),
    ] {
        let est = estimate_delay(
            || Box::new(SharedBusNetwork::from_config(&cfg, policy).expect("sbus")),
            &w,
            &opts,
            quality.seed,
            quality.reps,
        );
        let _ = writeln!(
            out,
            "  {:<16} normalized delay {:.4} ± {:.4}",
            name, est.normalized_delay, est.half_width
        );
    }
    let _ = writeln!(
        out,
        "\n(mean delay is policy-insensitive for exponential service; fairness is not)"
    );
    out
}

/// Ablation: Omega admission discipline (simultaneous vs staggered).
#[must_use]
pub fn ablation_stagger_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: Omega request admission (16/1x16x16 OMEGA/2, ratio=0.1)"
    );
    let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");
    let opts = quality.sim_options();
    for rho in [0.3, 0.6, 0.8] {
        let w = workload_at(rho, 0.1);
        let _ = writeln!(out, "rho = {rho}:");
        for (admission, name) in [
            (Admission::Simultaneous, "simultaneous"),
            (Admission::Staggered, "staggered"),
        ] {
            let est = estimate_delay(
                || Box::new(OmegaNetwork::from_config(&cfg, admission).expect("omega")),
                &w,
                &opts,
                quality.seed,
                quality.reps,
            );
            let _ = writeln!(
                out,
                "  {:<14} normalized delay {:.4} ± {:.4}",
                name, est.normalized_delay, est.half_width
            );
        }
    }
    out
}

/// Ablation: status-register freshness (continuous vs epoch-start-only),
/// isolating the paper's "outdated status information" effect.
#[must_use]
pub fn ablation_freshness_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: availability-register freshness (16/1x16x16 OMEGA/2, ratio=0.1)"
    );
    let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");
    let opts = quality.sim_options();
    for rho in [0.4, 0.7] {
        let w = workload_at(rho, 0.1);
        let _ = writeln!(out, "rho = {rho}:");
        for (freshness, name) in [
            (StatusFreshness::Continuous, "continuous"),
            (StatusFreshness::EpochStart, "epoch-start (stale)"),
        ] {
            // note: identical results here are the finding — see below.
            let est = estimate_delay(
                || {
                    let mut net =
                        OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("omega");
                    net.set_status_freshness(freshness);
                    Box::new(net)
                },
                &w,
                &opts,
                quality.seed,
                quality.reps,
            );
            let _ = writeln!(
                out,
                "  {:<22} normalized delay {:.4} ± {:.4}",
                name, est.normalized_delay, est.half_width
            );
        }
    }
    let _ = writeln!(
        out,
        "\n(identical delays are the finding: at queueing timescales requests\n\
         rarely resolve in the same epoch, so stale registers almost never\n\
         mislead anyone — quantitative support for the paper's assumption (c);\n\
         the effect is visible in direct high-contention resolution, see the\n\
         resolver's stale-status tests)"
    );
    out
}

/// Ablation: Omega versus indirect binary n-cube wiring at identical
/// configuration — the paper's "applicable to other multistage networks".
#[must_use]
pub fn ablation_wiring_text(quality: &RunQuality) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: interstage wiring, Omega vs indirect binary n-cube (16x16, r=2, ratio=0.1)"
    );
    let opts = quality.sim_options();
    for rho in [0.4, 0.7] {
        let w = workload_at(rho, 0.1);
        let _ = writeln!(out, "rho = {rho}:");
        for (wiring, name) in [(Wiring::Omega, "OMEGA"), (Wiring::Cube, "CUBE")] {
            let est = estimate_delay(
                || {
                    Box::new(OmegaNetwork::with_wiring(
                        1,
                        16,
                        2,
                        Admission::Simultaneous,
                        wiring,
                    ))
                },
                &w,
                &opts,
                quality.seed,
                quality.reps,
            );
            let _ = writeln!(
                out,
                "  {:<8} normalized delay {:.4} ± {:.4}",
                name, est.normalized_delay, est.half_width
            );
        }
    }
    out
}

/// Ablation: typed-resource placement (blocked vs interleaved), probing the
/// open problem of Section VII.
#[must_use]
pub fn ablation_placement_text(quality: &RunQuality) -> String {
    use rsin_core::typed::{simulate_typed, TypedWorkload};
    use rsin_des::SimRng as Rng;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: typed-resource placement (16x16 Omega, 2 types, 50/50 mix, ratio=0.1)"
    );
    let opts = quality.sim_options();
    for lambda in [0.3, 0.55] {
        let base = rsin_core::Workload::new(lambda, 10.0, 1.0).expect("valid");
        let w = TypedWorkload::new(base, vec![0.5, 0.5]).expect("valid");
        let _ = writeln!(out, "lambda = {lambda} per processor:");
        for (placement, name) in [
            (Placement::Blocked, "blocked"),
            (Placement::Interleaved, "interleaved"),
        ] {
            let mut net = OmegaNetwork::typed(1, 16, 1, 2, placement, Admission::Simultaneous);
            let mut rng = Rng::new(quality.seed);
            let report = simulate_typed(&mut net, &w, &opts, &mut rng);
            let _ = writeln!(
                out,
                "  {:<12} delay {:.4}  (type0 {:.4}, type1 {:.4})",
                name,
                report.normalized_delay(w.base()),
                report.per_type_delay[0].mean(),
                report.per_type_delay[1].mean(),
            );
        }
    }
    out
}

/// Ablation: service-time variability (the paper's exponential assumption
/// (a) relaxed) on the 16×16 Omega at fixed mean load.
#[must_use]
pub fn ablation_variability_text(quality: &RunQuality) -> String {
    use rsin_core::{simulate_general, StageDistributions};
    use rsin_des::{Deterministic, Erlang, Exponential, HyperExponential, SimRng as Rng};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: service-time distribution (16/1x16x16 OMEGA/2, ratio=0.1, rho=0.6)"
    );
    let w = workload_at(0.6, 0.1);
    let opts = quality.sim_options();
    let arrivals = Exponential::with_rate(w.lambda());
    let tx = Exponential::with_rate(w.mu_n());
    let cfg: SystemConfig = "16/1x16x16 OMEGA/2".parse().expect("valid");

    let cases: Vec<(&str, Box<dyn rsin_des::Draw>)> = vec![
        (
            "deterministic (cv2=0)",
            Box::new(Deterministic::new(1.0 / w.mu_s())),
        ),
        (
            "Erlang-4 (cv2=0.25)",
            Box::new(Erlang::new(4, 1.0 / w.mu_s())),
        ),
        (
            "exponential (cv2=1)",
            Box::new(Exponential::with_rate(w.mu_s())),
        ),
        (
            "hyperexp (cv2~3.5)",
            Box::new(HyperExponential::new(0.8, 2.0 * w.mu_s(), 0.4 * w.mu_s())),
        ),
    ];
    for (name, service) in &cases {
        let mut net = OmegaNetwork::from_config(&cfg, Admission::Simultaneous).expect("omega");
        let mut rng = Rng::new(quality.seed);
        let report = simulate_general(
            &mut net,
            &StageDistributions {
                interarrival: &arrivals,
                transmission: &tx,
                service: service.as_ref(),
            },
            &opts,
            &mut rng,
        );
        let _ = writeln!(
            out,
            "  {:<24} normalized delay {:.4}",
            name,
            report.mean_delay() * w.mu_s()
        );
    }
    let _ = writeln!(
        out,
        "\n(the allocation delay d is driven by resource occupancy, not service\n\
         shape; variability moves the curve but preserves the network ordering)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_sixteen_rows() {
        let t = table1_text();
        assert_eq!(t.lines().count(), 2 + 8, "header + 8 input rows");
        assert!(t.contains("Request"));
        assert!(t.contains("Reset"));
    }

    #[test]
    fn table2_covers_all_regimes() {
        let t = table2_text();
        assert!(t.contains("private buses"));
        assert!(t.contains("multistage"));
        assert!(t.contains("crossbar"));
    }

    #[test]
    fn fig11_reports_full_allocation() {
        let t = fig11_text();
        assert!(t.contains("rejected: []"), "{t}");
        assert!(t.contains("per request"));
    }

    #[test]
    fn mapping_example_marks_good_and_bad() {
        let t = mapping_example_text();
        assert_eq!(t.matches("realizable").count(), 4);
        assert_eq!(t.matches("BLOCKED").count(), 2);
        assert!(t.contains("optimal scheduler allocates: 3 of 3"));
    }

    #[test]
    fn section6_sbus3_wins_under_heavy_load() {
        // "a 16/16x1x1 SBUS/3 system has a much better delay behavior than a
        // 16/4x4x4 OMEGA/2 or a 16/4x4x4 XBAR/2 system." In our model the
        // advantage appears under heavy load (rho = 0.8), where shared
        // networks block; at light load the pooled organizations win —
        // recorded as a deviation in EXPERIMENTS.md. The margin over
        // OMEGA/2 is small at this load, so spend more effort than the
        // quick preset to resolve the ordering of the true means.
        let quality = RunQuality {
            measured: 24_000,
            reps: 4,
            ..RunQuality::quick()
        };
        let rows = section6_comparison(0.1, 0.8, &quality);
        assert_eq!(rows.len(), 3);
        let sbus = rows[0].normalized_delay;
        assert!(
            sbus < rows[1].normalized_delay && sbus < rows[2].normalized_delay,
            "SBUS/3 {sbus} must beat OMEGA/2 {} and XBAR/2 {}",
            rows[1].normalized_delay,
            rows[2].normalized_delay
        );
    }

    #[test]
    fn section6_pooling_wins_at_light_load() {
        // The flip side of the comparison: at light load the shared
        // organizations (8 pooled resources per 4 processors) beat 3
        // private resources per processor.
        let rows = section6_comparison(0.1, 0.3, &RunQuality::quick());
        let sbus = rows[0].normalized_delay;
        assert!(sbus > rows[1].normalized_delay && sbus > rows[2].normalized_delay);
    }

    #[test]
    fn blocking_table_reports_gap() {
        let mut q = RunQuality::quick();
        q.trials = 1_000;
        let t = blocking_text(&q);
        assert!(t.contains("RSIN"));
        assert!(t.lines().count() >= 5);
    }
}
