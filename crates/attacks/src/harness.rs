//! The transferability protocol (paper Figure 5), the one implementation
//! behind Tables 2, 3, 4, 5, and 10 and Figures 8–11.
//!
//! A runner first picks the images to attack with [`correctly_classified`]
//! on the model its table conditions on (the source for Tables 2/3/5/10 and
//! Figures 8–11, the victim for Table 4), then calls [`evaluate_transfer`]
//! once per attack: craft on the source, count the adversarials that fool
//! the source, and replay those on every target.

use da_tensor::Tensor;

use crate::metrics;
use crate::traits::{Attack, TargetModel};

/// Outcome of one crafted adversarial example.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Index of the clean image in the evaluated batch.
    pub index: usize,
    /// The adversarial image.
    pub adversarial: Tensor,
    /// Did it fool the model it was crafted on?
    pub fooled_source: bool,
    /// Did it fool each target? Only source-fooling adversarials are
    /// replayed, so every flag is `false` when `fooled_source` is.
    pub fooled_targets: Vec<bool>,
    /// L2 distance to the clean image.
    pub l2: f64,
    /// L∞ distance to the clean image.
    pub linf: f64,
}

/// Transferability of one attack from a source model to its targets.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Attack name (paper row label).
    pub attack: String,
    /// Examples attempted.
    pub attempted: usize,
    /// Examples that fooled the source model.
    pub source_successes: usize,
    /// Of those, examples that also fooled each target model.
    pub target_successes: Vec<usize>,
    /// One outcome per attempted example, in attack-set order.
    pub outcomes: Vec<TransferOutcome>,
}

fn rate(hits: usize, base: usize) -> f64 {
    if base == 0 {
        0.0
    } else {
        hits as f64 / base as f64
    }
}

impl TransferReport {
    /// Success rate on the source model (the paper's "Exact" column,
    /// typically 100% by construction).
    pub fn source_rate(&self) -> f64 {
        rate(self.source_successes, self.attempted)
    }

    /// Transfer rate to target `t`: the fraction of source-successful
    /// adversarials that also fool it (the paper's "Approximate" columns).
    pub fn transfer_rate(&self, t: usize) -> f64 {
        rate(self.target_successes[t], self.source_successes)
    }
}

impl std::fmt::Display for TransferReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:<6} source {:>5.1}%", self.attack, self.source_rate() * 100.0)?;
        for t in 0..self.target_successes.len() {
            write!(f, "  transfer {:>5.1}%", self.transfer_rate(t) * 100.0)?;
        }
        write!(f, "  ({} samples)", self.attempted)
    }
}

/// Indices of the images `model` classifies correctly, from one batched
/// forward pass — the attack set (only correctly classified inputs are
/// attacked).
pub fn correctly_classified(
    model: &dyn TargetModel,
    images: &Tensor,
    labels: &[usize],
) -> Vec<usize> {
    assert_eq!(images.shape()[0], labels.len(), "one label per image");
    let predictions = model.predict_batch(images);
    (0..labels.len()).filter(|&i| predictions[i] == labels[i]).collect()
}

/// Craft an adversarial with `attack` against `source` for every image of
/// `attack_set` (indices into `images`/`labels`) and replay the ones that
/// fool the source on every target (the paper's transferability protocol,
/// Figure 5). With no targets this measures the attack on the source alone.
///
/// Batch structure: crafting is per image (attacks are sequential query
/// loops); the source replay and each target replay are one
/// [`TargetModel::predict_batch`] call, so models backed by the serving
/// stack (`Network`'s compiled plans, or a [`crate::served::ServedModel`]
/// riding the cross-request batch server) evaluate them as coalesced
/// batches — bit-identical to per-image prediction.
pub fn evaluate_transfer(
    attack: &dyn Attack,
    source: &dyn TargetModel,
    targets: &[&dyn TargetModel],
    images: &Tensor,
    labels: &[usize],
    attack_set: &[usize],
) -> TransferReport {
    assert_eq!(images.shape()[0], labels.len(), "one label per image");
    let crafted: Vec<(usize, Tensor)> = attack_set
        .iter()
        .map(|&i| (i, attack.run(source, &images.batch_item(i), labels[i])))
        .collect();

    // Which of the crafted examples at positions `picks` `model`
    // misclassifies, in one batch.
    let fooled = |model: &dyn TargetModel, picks: &[usize]| -> Vec<bool> {
        if picks.is_empty() {
            return Vec::new();
        }
        let advs: Vec<Tensor> = picks.iter().map(|&c| crafted[c].1.clone()).collect();
        let predictions = model.predict_batch(&Tensor::stack(&advs));
        predictions.iter().zip(picks).map(|(&p, &c)| p != labels[crafted[c].0]).collect()
    };
    // Replay everything on the source, then only the source-fooling subset
    // on each target (the others cannot transfer).
    let all: Vec<usize> = (0..crafted.len()).collect();
    let fooled_source = fooled(source, &all);
    let fooling: Vec<usize> = all.into_iter().filter(|&c| fooled_source[c]).collect();
    let mut fooled_targets = vec![vec![false; targets.len()]; crafted.len()];
    let mut target_successes = vec![0; targets.len()];
    for (t, target) in targets.iter().enumerate() {
        for (&c, hit) in fooling.iter().zip(fooled(*target, &fooling)) {
            fooled_targets[c][t] = hit;
            target_successes[t] += usize::from(hit);
        }
    }

    let outcomes = crafted
        .into_iter()
        .zip(fooled_source.into_iter().zip(fooled_targets))
        .map(|((index, adversarial), (fooled_source, fooled_targets))| {
            let x = images.batch_item(index);
            TransferOutcome {
                index,
                l2: metrics::l2(&adversarial, &x),
                linf: metrics::linf(&adversarial, &x),
                adversarial,
                fooled_source,
                fooled_targets,
            }
        })
        .collect();
    TransferReport {
        attack: attack.name().to_string(),
        attempted: attack_set.len(),
        source_successes: fooling.len(),
        target_successes,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::Fgsm;
    use da_nn::layers::{Dense, Flatten, Relu};
    use da_nn::optim::Adam;
    use da_nn::train::{train, TrainConfig};
    use da_nn::Network;
    use rand::SeedableRng;

    fn data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let label = i % 2;
            let mut img = Tensor::rand_uniform(&[1, 4, 4], 0.15, 0.4, &mut rng);
            for y in 0..4 {
                for x in 0..2 {
                    let col = if label == 0 { x } else { x + 2 };
                    img[[0, y, col]] = rand::Rng::gen_range(&mut rng, 0.45..0.65);
                }
            }
            images.push(img);
            labels.push(label);
        }
        (Tensor::stack(&images), labels)
    }

    fn trained(seed: u64) -> Network {
        let (xs, ys) = data(200, 100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Network::new("harness-test")
            .push(Flatten)
            .push(Dense::new(16, 12, &mut rng))
            .push(Relu)
            .push(Dense::new(12, 2, &mut rng));
        let cfg = TrainConfig { epochs: 20, batch_size: 16, seed, verbose: false };
        train(&mut net, &xs, &ys, &cfg, &mut Adam::new(0.01));
        net
    }

    #[test]
    fn self_transfer_is_total() {
        // Crafting and evaluating on the same model: every source success is
        // a target success by definition.
        let net = trained(1);
        let (xs, ys) = data(12, 200);
        let report = evaluate_transfer(
            &Fgsm::new(0.3),
            &net,
            &[&net],
            &xs,
            &ys,
            &correctly_classified(&net, &xs, &ys),
        );
        assert_eq!(report.source_successes, report.target_successes[0]);
        assert!(report.source_rate() > 0.5);
        assert_eq!(report.outcomes.len(), report.attempted);
        assert!((report.transfer_rate(0) - 1.0).abs() < 1e-9 || report.source_successes == 0);
    }

    #[test]
    fn transfer_to_different_model_is_partial_or_less() {
        let a = trained(1);
        let b = trained(99);
        let (xs, ys) = data(12, 300);
        let report = evaluate_transfer(
            &Fgsm::new(0.3),
            &a,
            &[&b],
            &xs,
            &ys,
            &correctly_classified(&a, &xs, &ys),
        );
        assert!(report.target_successes[0] <= report.source_successes);
    }

    #[test]
    fn outcomes_record_distances() {
        let net = trained(2);
        let (xs, ys) = data(6, 400);
        let report = evaluate_transfer(
            &Fgsm::new(0.2),
            &net,
            &[&net],
            &xs,
            &ys,
            &correctly_classified(&net, &xs, &ys),
        );
        for o in &report.outcomes {
            assert!(o.linf <= 0.2 + 1e-6);
            assert!(o.l2 >= o.linf); // L2 dominates L∞ on multi-pixel changes
        }
    }

    #[test]
    fn display_formats_rates() {
        let r = TransferReport {
            attack: "FGSM".into(),
            attempted: 10,
            source_successes: 10,
            target_successes: vec![3],
            outcomes: Vec::new(),
        };
        let s = r.to_string();
        assert!(s.contains("100.0%"), "{s}");
        assert!(s.contains("30.0%"), "{s}");
    }
}
