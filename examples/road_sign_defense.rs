//! Road-sign-style object classification under black-box attack — the
//! autonomous-driving motivation of the paper's introduction, on the
//! CIFAR-scale AlexNet.
//!
//! ```sh
//! cargo run --release --example road_sign_defense
//! ```
//!
//! The adversary has no model access: it queries the deployed classifier,
//! trains a substitute, and attacks through it (paper Figure 6). We run the
//! pipeline against the exact AlexNet and against the DA AlexNet.

use defensive_approximation::arith::MultiplierKind;
use defensive_approximation::attacks::gradient::Pgd;
use defensive_approximation::attacks::substitute::{train_substitute, SubstituteConfig};
use defensive_approximation::attacks::{correctly_classified, evaluate_transfer};
use defensive_approximation::core::experiments::transfer::with_multiplier;
use defensive_approximation::core::{Budget, ModelCache};
use defensive_approximation::datasets::objects::synth_objects;
use defensive_approximation::nn::zoo::alexnet_cifar;
use defensive_approximation::nn::Network;
use rand::SeedableRng;

fn blackbox_success(victim: &Network, tag: &str) -> f64 {
    // Adversary-side data: a fresh unlabeled stream.
    let queries = synth_objects(1500, 0x0BAD_5EED);
    let mut substitute = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        alexnet_cifar(10, &mut rng)
    };
    let config = SubstituteConfig { epochs: 4, batch_size: 32, lr: 1e-3, seed: 5 };
    let agreement = train_substitute(&mut substitute, victim, &queries.images, &config);
    println!("[{tag}] substitute agreement with victim: {:.1}%", agreement * 100.0);

    let eval = synth_objects(40, 0xE7A1);
    let attack = Pgd::new(0.06, 0.01, 20, 7);
    // Attack the images the victim classifies correctly, crafting on the
    // substitute and replaying the substitute-fooling ones on the victim.
    let attack_set = correctly_classified(victim, &eval.images, &eval.labels);
    evaluate_transfer(&attack, &substitute, &[victim], &eval.images, &eval.labels, &attack_set)
        .transfer_rate(0)
}

fn main() {
    let cache = ModelCache::default_location();
    let budget = Budget::quick();
    println!("== Black-box attack on a road-sign-style classifier ==");
    let exact = cache.alexnet(&budget);
    let defended = with_multiplier(cache.alexnet(&budget), MultiplierKind::AxFpm);

    let exact_rate = blackbox_success(&exact, "exact");
    let da_rate = blackbox_success(&defended, "DA");

    println!("black-box PGD success  exact victim: {:.0}%", exact_rate * 100.0);
    println!("black-box PGD success  DA victim   : {:.0}%", da_rate * 100.0);
    println!("(paper Table 4 shape: the DA victim resists the substitute attack)");
}
