//! Regenerate the paper's entire evaluation in one run.
//!
//! ```sh
//! cargo run --release --bin reproduce            # quick budget
//! DA_BUDGET=paper cargo run --release --bin reproduce
//! DA_BUDGET=smoke cargo run --release --bin reproduce
//! ```
//!
//! Prints every table and figure in paper order; the Table 9 section adds
//! the §4.3 design-space listing and the AMA5 cell-wiring ablation. Trained backbones are
//! cached under `artifacts/` so re-runs are fast.

use std::time::Instant;

use defensive_approximation::arith::heap::{explore, select_heap};
use defensive_approximation::core::experiments::{
    accuracy, blackbox, confidence, dq, energy, fig4, heatmap, profiles, transfer, whitebox, wiring,
};
use defensive_approximation::core::{Budget, ModelCache};

fn main() {
    let budget = match std::env::var("DA_BUDGET").as_deref() {
        Ok("paper") => Budget::paper(),
        Ok("smoke") => Budget::smoke(),
        _ => Budget::quick(),
    };
    let cache = ModelCache::default_location();
    let t0 = Instant::now();
    let section = |title: &str| {
        println!("\n──────────────────────────────────────────────────────");
        println!("{title}  [t+{:.0?}]", t0.elapsed());
        println!("──────────────────────────────────────────────────────");
    };

    section("Figure 3 — Ax-FPM noise profile");
    println!("{}", profiles::fig3(&budget));

    section("Figure 4 — convolution vs similarity");
    println!("{}", fig4::fig4(6));

    section("Table 2 — transferability (SynthDigits / LeNet-5)");
    println!("{}", transfer::table2(&cache, &budget));

    section("Table 3 — transferability (SynthObjects / AlexNet)");
    println!("{}", transfer::table3(&cache, &budget));

    section("Table 4 — black-box substitute attacks");
    println!("{}", blackbox::table4(&cache, &budget));

    section("Figures 8 & 10 — white-box DeepFool");
    println!("{}", whitebox::fig8_fig10(&cache, &budget));

    section("Figures 9 & 11 — white-box C&W");
    println!("{}", whitebox::fig9_fig11(&cache, &budget));

    section("Figure 12 — confidence CDF");
    println!("{}", confidence::fig12(&cache, &budget));

    section("Table 5 — DA vs Defensive Quantization");
    println!("{}", dq::table5(&cache, &budget));

    section("Figure 13 — Bfloat16 noise profile");
    println!("{}", profiles::fig13(&budget));

    section("Table 6 — clean accuracy of all variants");
    println!("{}", accuracy::table6(&cache, &budget));

    section("Table 7 — FPM energy & delay");
    println!("{}", energy::table7());

    section("Table 8 — multiplier MRED/NMED + CNN accuracy");
    println!("{}", accuracy::table8(&cache, &budget));

    section("Table 9 — mantissa-core energy & delay");
    println!("{}", energy::table9());
    println!("Design-space exploration (paper §4.3), 20k samples per design:");
    let points = explore(20_000, 42);
    for p in &points {
        println!("  {p}");
    }
    if let Some(best) = select_heap(&points, 0.6) {
        println!("\nDSE pick under a 0.6x energy budget (published-HEAP criterion):");
        println!("  {best}");
    }
    println!("\n{}", wiring::ablation(20_000));

    section("Table 10 — HEAP vs Ax-FPM transferability");
    println!("{}", transfer::table10(&cache, &budget));

    section("Figure 15 — Ax-FPM vs HEAP noise profiles");
    let (ax, heap) = profiles::fig15(&budget);
    println!("{ax}\n{heap}");

    section("Figure 16 — feature-map heat maps");
    println!("{}", heatmap::fig16(&cache, &budget));

    println!("\nreproduction complete in {:.0?}", t0.elapsed());
}
