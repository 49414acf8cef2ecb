//! Regenerators for the paper's delay figures (Figs. 4, 5, 7, 8, 12, 13).
//!
//! Every figure plots the normalized queueing delay `d·µ_s` of several
//! `16-processor / 32-resource` organizations against the traffic intensity
//! of the common reference system (`ρ = 16λ(1/(16µ_n) + 1/(32µ_s))`), at
//! a fixed transmission-to-service ratio `µ_s/µ_n`. Analytic curves come
//! from the shared-bus Markov chain; crossbar and Omega curves come from
//! replicated simulation with 95% intervals.

use crate::quality::RunQuality;
use rsin_core::experiment::{Experiment, Series};
use rsin_core::{estimate_delay_jobs, ResourceNetwork, SystemConfig, Workload};
use rsin_omega::{Admission, OmegaNetwork};
use rsin_queueing::{traffic, Mm1, SharedBusChain, SharedBusParams};
use rsin_sbus::Arbitration;
use rsin_sbus::SharedBusNetwork;
use rsin_xbar::{CrossbarNetwork, CrossbarPolicy};

/// Reference processor count used on every figure's x axis.
pub const REF_PROCESSORS: u32 = 16;
/// Reference resource count used on every figure's x axis.
pub const REF_RESOURCES: u32 = 32;

/// The ρ grid used across figures. The extra 0.05 point exists because at
/// `µ_s/µ_n = 1` a single 16-processor bus saturates by ρ ≈ 0.094.
#[must_use]
pub fn rho_grid() -> Vec<f64> {
    std::iter::once(0.05)
        .chain((1..=9).map(|i| i as f64 / 10.0))
        .collect()
}

/// Per-processor arrival rate for reference intensity `rho` at
/// service-to-transmission ratio `ratio` (with `µ_s = 1`).
#[must_use]
pub fn lambda_at(rho: f64, ratio: f64) -> f64 {
    let mu_s = 1.0;
    let mu_n = mu_s / ratio;
    traffic::lambda_for_intensity(REF_PROCESSORS, REF_RESOURCES, rho, mu_n, mu_s)
}

/// Workload at reference intensity `rho` and ratio `µ_s/µ_n`.
///
/// # Panics
///
/// Panics if the parameters are invalid (they are fixed by the figures).
#[must_use]
pub fn workload_at(rho: f64, ratio: f64) -> Workload {
    Workload::new(lambda_at(rho, ratio), 1.0 / ratio, 1.0)
        .expect("figure workloads are valid by construction")
}

/// Analytic shared-bus series: `partitions` buses, each with
/// `16/partitions` processors and `32/partitions` resources... generalized
/// to explicit `procs_per_bus`/`resources_per_bus`.
///
/// Every point is a cold chain solve that depends only on its parameters,
/// so a series shown on several figures (e.g. the `SBUS/2` curve on Figs. 4
/// and 12) prints the same bytes on each.
fn sbus_series(label: &str, procs_per_bus: u32, resources_per_bus: u32, ratio: f64) -> Series {
    let mut s = Series::new(label);
    for rho in rho_grid() {
        let w = workload_at(rho, ratio);
        let params = SharedBusParams {
            processors: procs_per_bus,
            resources: resources_per_bus,
            lambda: w.lambda(),
            mu_n: w.mu_n(),
            mu_s: w.mu_s(),
        };
        match SharedBusChain::new(params).and_then(|c| c.solve()) {
            Ok(sol) => s.push(rho, sol.normalized_delay),
            Err(_) => break, // saturated: the curve ends here, like the figure
        }
    }
    s
}

/// M/M/1 series: private bus to infinitely many resources.
fn mm1_series(label: &str, ratio: f64) -> Series {
    let mut s = Series::new(label);
    for rho in rho_grid() {
        let w = workload_at(rho, ratio);
        match Mm1::new(w.lambda(), w.mu_n()) {
            Ok(q) => s.push(rho, q.mean_wait_in_queue() * w.mu_s()),
            Err(_) => break,
        }
    }
    s
}

/// Simulated series for any configuration/factory pair.
///
/// The stable prefix of the ρ grid is computed up front (a pure function of
/// the configuration), then the grid points run concurrently on
/// `quality.jobs()` workers with replications inline — every point is a
/// pure function of `(rho, seed)`, so the series is byte-identical to a
/// sequential sweep.
pub(crate) fn sim_series<F>(
    label: &str,
    cfg: &SystemConfig,
    ratio: f64,
    quality: &RunQuality,
    factory: F,
) -> Series
where
    F: Fn(&SystemConfig) -> Box<dyn ResourceNetwork> + Sync,
{
    let mut s = Series::new(label);
    let opts = quality.sim_options();
    let rhos: Vec<f64> = rho_grid()
        .into_iter()
        .take_while(|&rho| stable_enough(cfg, &workload_at(rho, ratio)))
        .collect();
    let points = rsin_des::scope_map(&rhos, quality.jobs(), |_, &rho| {
        let w = workload_at(rho, ratio);
        estimate_delay_jobs(|| factory(cfg), &w, &opts, quality.seed, quality.reps, 1)
    });
    for (&rho, est) in rhos.iter().zip(points) {
        s.push_ci(rho, est.normalized_delay, est.half_width);
    }
    s
}

/// Conservative stability guard for simulated points: the offered load must
/// stay below ~95% of both the resource-pool capacity and the aggregate
/// bus-pipeline capacity (each output bus feeds `r` resources, stalling
/// with Erlang-B probability).
fn stable_enough(cfg: &SystemConfig, w: &Workload) -> bool {
    let total_arrival = cfg.processors() as f64 * w.lambda();
    let res_capacity = cfg.total_resources() as f64 * w.mu_s();
    let a = w.mu_n() / w.mu_s();
    let mut b = 1.0;
    for k in 1..=cfg.resources_per_port() {
        b = a * b / (k as f64 + a * b);
    }
    let bus_capacity = cfg.total_ports() as f64 * w.mu_n() * (1.0 - b);
    total_arrival < 0.95 * res_capacity.min(bus_capacity)
}

/// Figs. 4 and 5: normalized queueing delay of single-shared-bus systems.
#[must_use]
pub fn fig_sbus(ratio: f64, fig_no: u32) -> Experiment {
    let mut e = Experiment::new(
        format!("Fig. {fig_no}: single shared bus, mu_s/mu_n = {ratio}"),
        "rho",
        "normalized queueing delay d*mu_s (analytic, Markov chain)",
    );
    e.add(sbus_series("16/1x16x1 SBUS/32", 16, 32, ratio));
    e.add(sbus_series("16/2x8x1 SBUS/16", 8, 16, ratio));
    e.add(sbus_series("16/8x2x1 SBUS/4", 2, 4, ratio));
    e.add(sbus_series("16/16x1x1 SBUS/2", 1, 2, ratio));
    e.add(sbus_series("private r=3", 1, 3, ratio));
    e.add(sbus_series("private r=4", 1, 4, ratio));
    e.add(mm1_series("private r=inf (M/M/1)", ratio));
    e
}

/// Figs. 7 and 8: normalized queueing delay of crossbar systems.
#[must_use]
pub fn fig_xbar(ratio: f64, fig_no: u32, quality: &RunQuality) -> Experiment {
    let mut e = Experiment::new(
        format!("Fig. {fig_no}: multiple shared buses (crossbar), mu_s/mu_n = {ratio}"),
        "rho",
        "normalized queueing delay d*mu_s (simulation, 95% CI)",
    );
    let configs = [
        "16/1x16x32 XBAR/1",
        "16/1x16x16 XBAR/2",
        "16/4x4x8 XBAR/1",
        "16/4x4x4 XBAR/2",
    ];
    for cfg_str in configs {
        let cfg: SystemConfig = cfg_str.parse().expect("valid figure config");
        e.add(sim_series(cfg_str, &cfg, ratio, quality, |c| {
            Box::new(
                CrossbarNetwork::from_config(c, CrossbarPolicy::FixedPriority)
                    .expect("crossbar config"),
            )
        }));
    }
    // The paper's analytic approximations for the largest configuration.
    let mut light = Series::new("light-load approx (1x16x32)");
    let mut heavy = Series::new("heavy-load approx (1x16x32)");
    for rho in rho_grid() {
        let w = workload_at(rho, ratio);
        let params = rsin_queueing::approx::CrossbarParams {
            processors: 16,
            buses: 32,
            resources_per_bus: 1,
            lambda: w.lambda(),
            mu_n: w.mu_n(),
            mu_s: w.mu_s(),
        };
        if let Ok(sol) = rsin_queueing::approx::crossbar_light_load(&params) {
            light.push(rho, sol.normalized_delay);
        }
        if let Ok(sol) = rsin_queueing::approx::crossbar_heavy_load(&params) {
            heavy.push(rho, sol.normalized_delay);
        }
    }
    e.add(light);
    e.add(heavy);
    e
}

/// Figs. 12 and 13: normalized queueing delay of Omega systems.
#[must_use]
pub fn fig_omega(ratio: f64, fig_no: u32, quality: &RunQuality) -> Experiment {
    let mut e = Experiment::new(
        format!("Fig. {fig_no}: Omega networks, mu_s/mu_n = {ratio}"),
        "rho",
        "normalized queueing delay d*mu_s (simulation, 95% CI)",
    );
    let configs = ["16/1x16x16 OMEGA/2", "16/8x2x2 OMEGA/2", "16/4x4x4 OMEGA/2"];
    for cfg_str in configs {
        let cfg: SystemConfig = cfg_str.parse().expect("valid figure config");
        e.add(sim_series(cfg_str, &cfg, ratio, quality, |c| {
            Box::new(OmegaNetwork::from_config(c, Admission::Simultaneous).expect("omega config"))
        }));
    }
    // SBUS/2 overlay for cross-figure comparison (Section VI).
    e.add(sbus_series("16/16x1x1 SBUS/2 (analytic)", 1, 2, ratio));
    e
}

/// A simulated SBUS series (used to overlay simulation on Figs. 4/5 and to
/// validate the chain end to end).
#[must_use]
pub fn sbus_sim_series(cfg_str: &str, ratio: f64, quality: &RunQuality) -> Series {
    let cfg: SystemConfig = cfg_str.parse().expect("valid SBUS config");
    sim_series(&format!("{cfg_str} (sim)"), &cfg, ratio, quality, |c| {
        Box::new(SharedBusNetwork::from_config(c, Arbitration::FixedPriority).expect("sbus config"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_grid_is_increasing_in_unit_interval() {
        let g = rho_grid();
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.iter().all(|&r| r > 0.0 && r < 1.0));
    }

    #[test]
    fn fig4_shape_partitioning_helps_at_low_ratio() {
        // Fig. 4's headline: at µ_s/µ_n = 0.1 the delay is smaller as the
        // number of partitions increases (comparing at a common mid ρ).
        let e = fig_sbus(0.1, 4);
        let at = |i: usize| e.series[i].value_at_or_before(0.3).expect("point at 0.3");
        let one = at(0);
        let two = at(1);
        let eight = at(2);
        assert!(one > two, "1 partition {one} worse than 2 {two}");
        assert!(two > eight, "2 partitions {two} worse than 8 {eight}");
    }

    #[test]
    fn fig4_crossover_of_16_partitions() {
        // Fig. 4's "strange behavior": 16 partitions are worse than 2 below
        // ρ ≈ 0.64 (resources bottleneck) but approach the 8-partition curve
        // as ρ grows (bus bottleneck shifts).
        let e = fig_sbus(0.1, 4);
        let sixteen = &e.series[3];
        let two = &e.series[1];
        let low_16 = sixteen.value_at_or_before(0.3).expect("rho 0.3");
        let low_2 = two.value_at_or_before(0.3).expect("rho 0.3");
        assert!(
            low_16 > low_2,
            "below the crossover 16 partitions ({low_16}) lag 2 partitions ({low_2})"
        );
        // Both series still have points at ρ = 0.7 (2 partitions saturate
        // near 0.75); past the paper's ρ ≈ 0.64 crossover the order flips.
        let hi_16 = sixteen.value_at_or_before(0.7).expect("rho 0.7");
        let hi_2 = two.value_at_or_before(0.7).expect("rho 0.7");
        assert!(
            hi_16 < hi_2,
            "above the crossover 16 partitions ({hi_16}) beat 2 partitions ({hi_2})"
        );
    }

    #[test]
    fn fig4_private_resources_nearly_halve_delay() {
        // "the delay is almost halved as the number of private resources
        // ... is increased from 2 to 4".
        let e = fig_sbus(0.1, 4);
        let r2 = e.series[3].value_at_or_before(0.5).expect("r=2 at 0.5");
        let r4 = e.series[5].value_at_or_before(0.5).expect("r=4 at 0.5");
        assert!(
            r4 < 0.65 * r2,
            "r=4 ({r4}) should be near half of r=2 ({r2})"
        );
    }

    #[test]
    fn fig5_no_crossover_more_partitions_strictly_better() {
        // At µ_s/µ_n = 1.0 the bus is always the bottleneck: partitioning
        // helps monotonically and the crossover disappears.
        let e = fig_sbus(1.0, 5);
        // ρ = 0.05 is the only intensity every partitioning survives (a
        // single bus saturates at ρ ≈ 0.094 when µ_s/µ_n = 1).
        let vals: Vec<f64> = (0..4)
            .map(|i| e.series[i].value_at_or_before(0.05).expect("point"))
            .collect();
        assert!(
            vals.windows(2).all(|w| w[0] > w[1]),
            "partitions must help monotonically at rho=0.05: {vals:?}"
        );
    }

    #[test]
    fn fig5_infinite_resources_gain_is_small() {
        // "the improvement of using infinitely many resources is very small
        // due to the high data-transmission time."
        let e = fig_sbus(1.0, 5);
        let r4 = e.series[5].value_at_or_before(0.4).expect("r=4");
        let rinf = e.series[6].value_at_or_before(0.4).expect("r=inf");
        assert!(
            (r4 - rinf) / r4.max(1e-12) < 0.25,
            "r=inf ({rinf}) should barely beat r=4 ({r4}) at ratio 1.0"
        );
    }
}
