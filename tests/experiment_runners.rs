//! Integration: every experiment runner produces a well-formed, printable
//! result on the smoke budget (the per-table/figure index is in the
//! `da_core` crate docs).

use defensive_approximation::arith::array::PortMap;
use defensive_approximation::core::experiments::{
    accuracy, confidence, energy, fig4, heatmap, profiles, transfer, wiring,
};
use defensive_approximation::core::{Budget, ModelCache};

fn cache() -> ModelCache {
    // Shared across tests in this file: backbones train once.
    ModelCache::new(std::env::temp_dir().join("da-runners-shared"))
}

#[test]
fn profile_runners_render() {
    let budget = Budget::smoke();
    let f3 = profiles::fig3(&budget);
    assert!(f3.to_string().contains("Figure 3"));
    let f13 = profiles::fig13(&budget);
    assert!(f13.summary.mean_abs_error < f3.summary.mean_abs_error);
    let (a, h) = profiles::fig15(&budget);
    assert!(a.to_string().contains("15a") && h.to_string().contains("15b"));
}

#[test]
fn fig4_runner_renders() {
    let series = fig4::fig4(6);
    let text = series.to_string();
    assert_eq!(text.lines().count(), 8, "{text}");
}

#[test]
fn energy_runners_render() {
    assert!(energy::table7().to_string().contains("Ax-FPM"));
    assert!(energy::table9().to_string().contains("HEAP"));

    // A reduced sample count keeps the gate-level sweep fast in debug.
    let ablation = wiring::ablation(2_000);
    assert_eq!(ablation.rows.len(), 12, "{ablation}");
    let canonical = ablation
        .rows
        .iter()
        .find(|r| r.port_map == PortMap::PpSumCarry && r.cpa == "ama5-cpa")
        .expect("canonical wiring row");
    assert_eq!(canonical.stats.inflation_rate, 1.0, "{ablation}");
    assert!((0.33..=0.39).contains(&canonical.stats.mred), "{ablation}");
}

#[test]
fn transfer_runner_renders_with_shared_cache() {
    let table = transfer::table2(&cache(), &Budget::smoke());
    let text = table.to_string();
    assert!(text.contains("Table 2"), "{text}");
    assert_eq!(table.rows.len(), 8);
}

#[test]
fn confidence_runner_renders_with_shared_cache() {
    let cdf = confidence::fig12(&cache(), &Budget::smoke());
    assert!(cdf.to_string().contains("Figure 12"));
}

#[test]
fn accuracy_runner_renders_with_shared_cache() {
    let t8 = accuracy::table8(&cache(), &Budget::smoke());
    assert!(t8.to_string().contains("MRED"));
}

#[test]
fn heatmap_runner_renders_with_shared_cache() {
    let report = heatmap::fig16(&cache(), &Budget::smoke());
    assert_eq!(report.stats.len(), 3);
}
