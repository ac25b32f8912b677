//! The model interface attacks operate on, and the attack abstraction.

use da_nn::loss::argmax_logits;
use da_nn::Network;
use da_tensor::Tensor;

/// A classifier under attack, exposing the three access levels of the
/// paper's threat models (§3.1): decisions, scores, and gradients.
///
/// Inputs are single images `[C, H, W]` with values in `[0, 1]`.
pub trait TargetModel: Send + Sync {
    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Raw logits for one image.
    fn logits(&self, x: &Tensor) -> Vec<f32>;

    /// Cross-entropy loss and its input gradient (white-box access; under an
    /// approximate multiplier this is the BPDA straight-through gradient).
    /// For a [`Network`] it runs on the compiled plan's gradient sweep, or on
    /// the per-layer backward when the plan has none (see
    /// [`Network::input_gradient`]).
    fn loss_gradient(&self, x: &Tensor, label: usize) -> (f32, Tensor);

    /// Input gradient of one logit (white-box access); same path as
    /// [`TargetModel::loss_gradient`].
    fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor;

    /// Softmax probabilities (score-based access).
    fn probabilities(&self, x: &Tensor) -> Vec<f32> {
        let logits = self.logits(x);
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Predicted label (decision-based access).
    fn predict(&self, x: &Tensor) -> usize {
        let logits = self.logits(x);
        argmax_logits(&logits)
    }

    /// Predicted labels for a whole `[N, C, H, W]` batch.
    ///
    /// The default loops [`predict`](TargetModel::predict) per image; models
    /// backed by batched inference (like [`Network`]) override it with one
    /// batched forward pass through the compiled serving engine
    /// (`da_nn::engine`: pre-reshaped weights, fused conv tiles, reused
    /// workspaces), which is bit-identical per image.
    fn predict_batch(&self, images: &Tensor) -> Vec<usize> {
        (0..images.shape()[0]).map(|i| self.predict(&images.batch_item(i))).collect()
    }
}

impl TargetModel for Network {
    fn num_classes(&self) -> usize {
        // The classifier head's bias length is the class count.
        self.params().last().expect("non-empty network").shape()[0]
    }

    fn logits(&self, x: &Tensor) -> Vec<f32> {
        let batch = Tensor::stack(std::slice::from_ref(x));
        Network::logits(self, &batch).into_vec()
    }

    fn loss_gradient(&self, x: &Tensor, label: usize) -> (f32, Tensor) {
        let batch = Tensor::stack(std::slice::from_ref(x));
        let (loss, grad) = Network::input_gradient(self, &batch, &[label]);
        (loss, grad.batch_item(0))
    }

    fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor {
        let batch = Tensor::stack(std::slice::from_ref(x));
        Network::class_gradient(self, &batch, class).batch_item(0)
    }

    fn predict_batch(&self, images: &Tensor) -> Vec<usize> {
        let logits = Network::logits(self, images);
        let classes = logits.shape()[1];
        logits.data().chunks(classes).map(argmax_logits).collect()
    }
}

/// Wrapper enforcing decision/score-only access: any gradient call panics.
///
/// Used in tests to prove that LSA, Boundary Attack, and HopSkipJump are
/// genuinely black-box (paper Table 1 categories).
pub struct DecisionOnly<'a>(pub &'a dyn TargetModel);

impl TargetModel for DecisionOnly<'_> {
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Vec<f32> {
        self.0.logits(x)
    }

    fn loss_gradient(&self, _x: &Tensor, _label: usize) -> (f32, Tensor) {
        panic!("decision-only model: loss_gradient is not available");
    }

    fn class_gradient(&self, _x: &Tensor, _class: usize) -> Tensor {
        panic!("decision-only model: class_gradient is not available");
    }
}

/// An adversarial-example generator.
pub trait Attack: Send + Sync {
    /// Stable attack name as it appears in the paper's tables
    /// ("FGSM", "PGD", "JSMA", "C&W", "DF", "LSA", "BA", "HSJ").
    fn name(&self) -> &str;

    /// Craft a candidate adversarial for `(x, label)` against `model`.
    ///
    /// The returned image is clipped to `[0, 1]`. It may fail to fool the
    /// model; callers decide success via `model.predict`.
    fn run(&self, model: &dyn TargetModel, x: &Tensor, label: usize) -> Tensor;
}

/// Clip helper shared by attack implementations.
pub(crate) fn clip01(mut x: Tensor) -> Tensor {
    x.clamp_inplace(0.0, 1.0);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_nn::layers::{Dense, Flatten, Relu};
    use rand::SeedableRng;

    pub(crate) fn tiny_model() -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        Network::new("tiny")
            .push(Flatten)
            .push(Dense::new(16, 12, &mut rng))
            .push(Relu)
            .push(Dense::new(12, 3, &mut rng))
    }

    #[test]
    fn network_implements_target_model() {
        let net = tiny_model();
        let x =
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, &mut rand::rngs::StdRng::seed_from_u64(2));
        assert_eq!(net.num_classes(), 3);
        assert_eq!(TargetModel::logits(&net, &x).len(), 3);
        let probs = TargetModel::probabilities(&net, &x);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        let pred = TargetModel::predict(&net, &x);
        assert!(pred < 3);
        let (_, grad) = TargetModel::loss_gradient(&net, &x, 0);
        assert_eq!(grad.shape(), x.shape());
    }

    #[test]
    fn decision_only_forwards_predictions() {
        let net = tiny_model();
        let x =
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, &mut rand::rngs::StdRng::seed_from_u64(3));
        let wrapped = DecisionOnly(&net);
        assert_eq!(wrapped.predict(&x), TargetModel::predict(&net, &x));
        assert_eq!(wrapped.num_classes(), 3);
    }

    #[test]
    #[should_panic(expected = "decision-only model")]
    fn decision_only_blocks_gradients() {
        let net = tiny_model();
        let x = Tensor::zeros(&[1, 4, 4]);
        let _ = DecisionOnly(&net).loss_gradient(&x, 0);
    }
}
