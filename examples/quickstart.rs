//! Quickstart: deploy Defensive Approximation on a pre-trained classifier.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Trains (or loads from `artifacts/`) a LeNet-5 on SynthDigits, swaps its
//! multipliers for the paper's Ax-FPM — no retraining — and shows:
//! 1. clean accuracy is preserved,
//! 2. an FGSM adversarial crafted on the exact model fails to transfer.
//!
//! All inference below rides compiled serving plans (`da_nn::engine`):
//! `Network` caches an `InferencePlan` with pre-reshaped weights, fused
//! conv tiles, and reused workspaces, and every `predict`/`accuracy` call
//! routes through it — bit-identical to the per-layer forward pass.

use defensive_approximation::arith::MultiplierKind;
use defensive_approximation::attacks::gradient::Fgsm;
use defensive_approximation::attacks::{Attack, TargetModel};
use defensive_approximation::core::experiments::transfer::with_multiplier;
use defensive_approximation::core::{Budget, ModelCache};
use defensive_approximation::nn::train::evaluate_accuracy;

fn main() {
    let cache = ModelCache::default_location();
    let budget = Budget::quick();

    println!("== Defensive Approximation quickstart ==");
    println!("training or loading LeNet-5 (cache: {}) ...", cache.dir().display());
    let exact = cache.lenet(&budget);
    let defended = with_multiplier(cache.lenet(&budget), MultiplierKind::AxFpm);

    // Both models serve through compiled plans (compiled once, cached).
    let plan = defended.plan().expect("LeNet-5 compiles to a serving plan");
    println!(
        "serving plan: {} fused steps on the {} multiplier",
        plan.depth(),
        plan.multiplier().map(|m| m.name()).unwrap_or("native")
    );

    // 1. Clean accuracy before/after the multiplier swap (paper Table 6).
    let test = cache.digits_test(500);
    let acc_exact = evaluate_accuracy(&exact, &test.images, &test.labels, 64);
    let acc_da = evaluate_accuracy(&defended, &test.images, &test.labels, 64);
    println!(
        "clean accuracy   exact: {:.2}%   DA (Ax-FPM): {:.2}%",
        acc_exact * 100.0,
        acc_da * 100.0
    );

    // 2. A transferability attack (paper Table 2, one example).
    let attack = Fgsm::new(0.25);
    let mut shown = 0;
    for i in 0..test.len() {
        let x = test.images.batch_item(i);
        let label = test.labels[i];
        if TargetModel::predict(&exact, &x) != label {
            continue;
        }
        let adv = attack.run(&exact, &x, label);
        let exact_pred = TargetModel::predict(&exact, &adv);
        if exact_pred == label {
            continue; // attack failed on the exact model; try the next image
        }
        let da_pred = TargetModel::predict(&defended, &adv);
        println!(
            "digit {label}: FGSM fools exact model (-> {exact_pred}); DA model says {da_pred} ({})",
            if da_pred == label { "defended!" } else { "transferred" }
        );
        shown += 1;
        if shown >= 5 {
            break;
        }
    }
    println!("done. see `cargo bench` for the full table reproductions.");
}
