//! Reference test of the transferability protocol (paper Figure 5):
//! `evaluate_transfer`'s counts and per-example outcomes against a
//! hand-rolled per-image `predict` loop, for the two clean filters the
//! runners use — the source's (Tables 2/3/5/10, Figures 8–11) and the
//! victim's (Table 4).

use da_attacks::gradient::{Fgsm, Pgd};
use da_attacks::{
    correctly_classified, evaluate_transfer, metrics, Attack, TargetModel, TransferReport,
};
use da_nn::layers::{Dense, Flatten, Relu};
use da_nn::optim::Adam;
use da_nn::train::{train, TrainConfig};
use da_nn::Network;
use da_tensor::Tensor;
use rand::{Rng, SeedableRng};

/// Two-class 4×4 images: the bright half (left or right) is the label.
fn data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut images = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let label = i % 2;
        let mut img = Tensor::rand_uniform(&[1, 4, 4], 0.15, 0.4, &mut rng);
        for y in 0..4 {
            for x in 0..2 {
                img[[0, y, if label == 0 { x } else { x + 2 }]] = rng.gen_range(0.45..0.65);
            }
        }
        images.push(img);
        labels.push(label);
    }
    (Tensor::stack(&images), labels)
}

fn mlp(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("protocol")
        .push(Flatten)
        .push(Dense::new(16, 12, &mut rng))
        .push(Relu)
        .push(Dense::new(12, 2, &mut rng))
}

fn trained(seed: u64, epochs: usize) -> Network {
    let (xs, ys) = data(200, 100);
    let mut net = mlp(seed);
    let cfg = TrainConfig { epochs, batch_size: 16, seed, verbose: false };
    train(&mut net, &xs, &ys, &cfg, &mut Adam::new(0.01));
    net
}

/// The protocol written out per image: attack the images `filter` gets
/// right, craft on `source`, and replay the source-fooling ones on each
/// target. Returns `(index, adversarial, fooled_source, fooled_targets)`.
fn reference(
    attack: &dyn Attack,
    filter: &dyn TargetModel,
    source: &dyn TargetModel,
    targets: &[&dyn TargetModel],
    images: &Tensor,
    labels: &[usize],
) -> Vec<(usize, Tensor, bool, Vec<bool>)> {
    let mut rows = Vec::new();
    for (i, &label) in labels.iter().enumerate() {
        let x = images.batch_item(i);
        if filter.predict(&x) != label {
            continue;
        }
        let adv = attack.run(source, &x, label);
        let fooled_source = source.predict(&adv) != label;
        let fooled_targets =
            targets.iter().map(|t| fooled_source && t.predict(&adv) != label).collect();
        rows.push((i, adv, fooled_source, fooled_targets));
    }
    rows
}

/// Checks one `evaluate_transfer` call against [`reference`] and returns it.
fn assert_matches_reference(
    attack: &dyn Attack,
    filter: &dyn TargetModel,
    source: &dyn TargetModel,
    targets: &[&dyn TargetModel],
    images: &Tensor,
    labels: &[usize],
) -> TransferReport {
    let attack_set = correctly_classified(filter, images, labels);
    let report = evaluate_transfer(attack, source, targets, images, labels, &attack_set);
    let expected = reference(attack, filter, source, targets, images, labels);

    assert_eq!(report.attack, attack.name());
    assert_eq!(report.attempted, expected.len(), "{}", attack.name());
    assert_eq!(report.outcomes.len(), expected.len());
    let source_hits = expected.iter().filter(|e| e.2).count();
    assert_eq!(report.source_successes, source_hits, "{}", attack.name());
    for t in 0..targets.len() {
        let hits = expected.iter().filter(|e| e.3[t]).count();
        assert_eq!(report.target_successes[t], hits, "{} target {t}", attack.name());
        let rate = if source_hits == 0 { 0.0 } else { hits as f64 / source_hits as f64 };
        assert_eq!(report.transfer_rate(t), rate);
    }
    for (o, (index, adv, fooled_source, fooled_targets)) in report.outcomes.iter().zip(&expected) {
        assert_eq!(o.index, *index);
        assert_eq!(o.adversarial, *adv, "image {index}");
        assert_eq!(o.fooled_source, *fooled_source, "image {index}");
        assert_eq!(o.fooled_targets, *fooled_targets, "image {index}");
        let x = images.batch_item(*index);
        assert_eq!(o.l2.to_bits(), metrics::l2(adv, &x).to_bits());
        assert_eq!(o.linf.to_bits(), metrics::linf(adv, &x).to_bits());
    }
    report
}

/// Some but not all source-fooling adversarials fooled target `t`.
fn partial(report: &TransferReport, t: usize) -> bool {
    (1..report.source_successes).contains(&report.target_successes[t])
}

fn attacks() -> Vec<Box<dyn Attack>> {
    vec![Box::new(Fgsm::new(0.2)), Box::new(Pgd::new(0.15, 0.04, 8, 3))]
}

#[test]
fn source_filtered_transfer_matches_per_image_loop() {
    let source = trained(1, 20);
    let other = trained(7, 20);
    // A target that gets many clean images wrong: its clean errors on the
    // source's attack set count as transfers under the source-only filter.
    let weak = mlp(11);
    let (xs, ys) = data(24, 300);

    let attack_set = correctly_classified(&source, &xs, &ys);
    assert!(attack_set.len() >= 12, "source must classify most images");
    let weak_wrong = attack_set
        .iter()
        .filter(|&&i| TargetModel::predict(&weak, &xs.batch_item(i)) != ys[i])
        .count();
    assert!(weak_wrong > 0, "the weak target must misclassify some attacked clean images");

    for attack in attacks() {
        let report =
            assert_matches_reference(&*attack, &source, &source, &[&other, &weak], &xs, &ys);
        assert!(partial(&report, 1), "{report}");
    }
}

#[test]
fn victim_filtered_transfer_matches_per_image_loop() {
    // Table 4's shape: craft on a substitute, replay on the victim, attack
    // only the images the victim classifies correctly.
    let substitute = trained(3, 20);
    // An untrained victim: it gets a few clean images wrong and some
    // substitute-crafted adversarials fool it, others do not.
    let victim = mlp(14);
    let (xs, ys) = data(24, 400);

    let victim_set = correctly_classified(&victim, &xs, &ys);
    assert_ne!(
        victim_set,
        correctly_classified(&substitute, &xs, &ys),
        "the two filters must pick different attack sets"
    );
    for attack in attacks() {
        let report = assert_matches_reference(&*attack, &victim, &substitute, &[&victim], &xs, &ys);
        assert!(partial(&report, 0), "{report}");
    }
}

#[test]
fn no_targets_measures_the_source_alone() {
    let source = trained(5, 20);
    let (xs, ys) = data(12, 500);
    let attack_set = correctly_classified(&source, &xs, &ys);
    let report = evaluate_transfer(&Fgsm::new(0.3), &source, &[], &xs, &ys, &attack_set);
    assert!(report.target_successes.is_empty());
    assert!(report.outcomes.iter().all(|o| o.fooled_targets.is_empty()));
    assert_matches_reference(&Fgsm::new(0.3), &source, &source, &[], &xs, &ys);
}
