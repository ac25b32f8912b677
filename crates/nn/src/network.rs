//! The sequential [`Network`] container and the classifier API attacked by
//! `da-attacks`.

use std::sync::{Arc, Mutex};

use da_arith::Multiplier;
use da_tensor::Tensor;

use crate::engine::InferencePlan;
use crate::layers::{Cache, Layer, Mode};
use crate::loss::{argmax_logits, softmax, softmax_cross_entropy};

/// Cached compiled-plan state (see [`Network::plan`]).
enum PlanSlot {
    /// No current plan; compile on next use.
    Stale,
    /// A compiled plan matching the network's current weights/multiplier.
    Ready(Arc<InferencePlan>),
    /// The layer stack has no compiled form; don't retry until invalidated.
    Uncompilable,
}

/// A sequential stack of layers.
///
/// # Examples
///
/// ```
/// use da_nn::layers::{Dense, Relu};
/// use da_nn::Network;
/// use da_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Network::new("tiny")
///     .push(Dense::new(4, 8, &mut rng))
///     .push(Relu)
///     .push(Dense::new(8, 3, &mut rng));
/// let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
/// assert_eq!(net.logits(&x).shape(), &[2, 3]);
/// ```
pub struct Network {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    multiplier: Option<Arc<dyn Multiplier>>,
    /// Lazily compiled serving plan ([`crate::engine`]); invalidated on any
    /// mutation that could change evaluation-mode outputs.
    plan: Mutex<PlanSlot>,
}

impl Network {
    /// An empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            layers: Vec::new(),
            multiplier: None,
            plan: Mutex::new(PlanSlot::Stale),
        }
    }

    /// Append a layer (builder-style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self.invalidate_plan();
        self
    }

    /// The network's name (used in reports and cache keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the network (returns `self` for chaining).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The installed approximate multiplier, if any.
    pub fn multiplier(&self) -> Option<&Arc<dyn Multiplier>> {
        self.multiplier.as_ref()
    }

    /// Install (or clear, with `None`) the forward multiplier in every layer.
    ///
    /// This is the Defensive Approximation deployment step: the weights and
    /// architecture stay identical; only the hardware multiplier changes
    /// (paper §4).
    pub fn set_multiplier(&mut self, multiplier: Option<Arc<dyn Multiplier>>) {
        for layer in &mut self.layers {
            layer.set_multiplier(multiplier.clone());
        }
        self.multiplier = multiplier;
        self.invalidate_plan();
    }

    /// The layer stack (read-only; used by the serving engine's compiler).
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Drop the cached serving plan so the next inference recompiles.
    fn invalidate_plan(&self) {
        *self.plan.lock().expect("plan lock") = PlanSlot::Stale;
    }

    /// The compiled serving plan for the network's current state, compiling
    /// and caching it on first use. `None` if any layer has no compiled form
    /// (inference then falls back to the per-layer [`Network::forward`]).
    ///
    /// The cache is invalidated by [`Network::set_multiplier`],
    /// [`Network::params_mut`], and training-mode forwards (which update
    /// batch-norm running statistics). Each recompile returns a new `Arc`,
    /// so a holder of an earlier plan (a
    /// [`BatchServer`](crate::serve::BatchServer), say) can tell the network
    /// has moved on with `!Arc::ptr_eq(&held, &net.plan()?)`.
    pub fn plan(&self) -> Option<Arc<InferencePlan>> {
        let mut slot = self.plan.lock().expect("plan lock");
        match &*slot {
            PlanSlot::Ready(plan) => Some(plan.clone()),
            PlanSlot::Uncompilable => None,
            PlanSlot::Stale => match InferencePlan::compile(self, self.multiplier.clone()) {
                Some(plan) => {
                    let plan = Arc::new(plan);
                    *slot = PlanSlot::Ready(plan.clone());
                    Some(plan)
                }
                None => {
                    *slot = PlanSlot::Uncompilable;
                    None
                }
            },
        }
    }

    /// Full forward pass returning the output and per-layer caches.
    pub fn forward(&self, x: &Tensor, mode: Mode) -> (Tensor, Vec<Cache>) {
        if mode.is_train() {
            // Training forwards update batch-norm running statistics, which
            // compiled plans snapshot.
            self.invalidate_plan();
        }
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut activ = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let (next, cache) = layer.forward(&activ, mode.for_layer(i));
            caches.push(cache);
            activ = next;
        }
        if mode.is_train() {
            // Invalidate again on the way out: a concurrent `logits` call
            // may have compiled (and cached) a plan from mid-update
            // statistics during this pass.
            self.invalidate_plan();
        }
        (activ, caches)
    }

    /// Backward pass from `∂L/∂output`, returning `∂L/∂input` and per-layer
    /// parameter gradients (innermost `Vec` aligned with each layer's
    /// `params()`).
    pub fn backward(&self, caches: &[Cache], grad_out: &Tensor) -> (Tensor, Vec<Vec<Tensor>>) {
        assert_eq!(caches.len(), self.layers.len(), "cache/layer count mismatch");
        let mut grads = vec![Vec::new(); self.layers.len()];
        let mut grad = grad_out.clone();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let (gin, pgrads) = layer.backward(&caches[i], &grad);
            grads[i] = pgrads;
            grad = gin;
        }
        (grad, grads)
    }

    /// Inference logits for a `[N, ...]` batch.
    ///
    /// Runs on the compiled serving plan ([`crate::engine`]) when the layer
    /// stack supports it — bit-identical to the per-layer
    /// `forward(x, Mode::Eval)`, which remains the fallback (and the
    /// reference the plan is property-tested against).
    pub fn logits(&self, x: &Tensor) -> Tensor {
        match self.plan() {
            Some(plan) => plan.predict_batch(x),
            None => self.forward(x, Mode::Eval).0,
        }
    }

    /// Softmax class probabilities.
    pub fn probabilities(&self, x: &Tensor) -> Tensor {
        softmax(&self.logits(x))
    }

    /// Predicted class per batch item.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.logits(x);
        let k = logits.shape()[1];
        logits.data().chunks(k).map(argmax_logits).collect()
    }

    /// Fraction of `labels` predicted correctly.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        let preds = self.predict(x);
        assert_eq!(preds.len(), labels.len(), "one label per item");
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f32 / labels.len() as f32
    }

    /// Cross-entropy loss and its gradient with respect to the *input* —
    /// the primitive every gradient-based attack builds on. Under an
    /// approximate multiplier this is the BPDA/straight-through gradient:
    /// the forward runs on the multiplier, the backward on the exact
    /// weights.
    ///
    /// Runs on the compiled plan ([`crate::engine`]) when it has a gradient
    /// form — bit-identical to the per-layer `forward(x, Mode::Eval)` +
    /// [`Network::backward`], which remains the fallback for stacks with
    /// batch norm and for stacks with no compiled form.
    pub fn input_gradient(&self, x: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        let mut loss = 0.0;
        let dx = self.seeded_gradient(x, |logits| {
            let (l, dlogits) = softmax_cross_entropy(logits, labels);
            loss = l;
            dlogits
        });
        (loss, dx)
    }

    /// Gradient of one logit (`class`) with respect to the input, per batch
    /// item — used by DeepFool and JSMA. Same path and fallback as
    /// [`Network::input_gradient`].
    pub fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor {
        self.seeded_gradient(x, |logits| {
            let (n, k) = (logits.shape()[0], logits.shape()[1]);
            assert!(class < k, "class {class} out of {k}");
            let mut seed = Tensor::zeros(&[n, k]);
            for i in 0..n {
                seed.data_mut()[i * k + class] = 1.0;
            }
            seed
        })
    }

    /// The input gradient for the logit gradient `seed(logits)`: on the
    /// compiled plan's dX-only reverse sweep when the plan has one, else
    /// through the per-layer forward and backward passes.
    fn seeded_gradient(&self, x: &Tensor, seed: impl FnOnce(&Tensor) -> Tensor) -> Tensor {
        match self.plan().filter(|plan| plan.differentiable()) {
            Some(plan) => plan.input_gradient(x, seed),
            None => {
                let (logits, caches) = self.forward(x, Mode::Eval);
                self.backward(&caches, &seed(&logits)).0
            }
        }
    }

    /// Parameter views in layer order.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable parameter views in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.invalidate_plan();
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    /// Every layer's non-learnable evaluation state (batch-norm running
    /// statistics), in layer order: what [`crate::io::save_params`] stores
    /// beside the parameters.
    pub fn buffers(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.buffers()).collect()
    }

    /// Replace the state [`Network::buffers`] reports, given in the same
    /// order and shapes.
    ///
    /// # Panics
    ///
    /// Panics if a layer's buffers are missing or mis-shaped.
    pub fn set_buffers(&mut self, buffers: Vec<Tensor>) {
        self.invalidate_plan();
        let mut rest = buffers.into_iter();
        for layer in &mut self.layers {
            let count = layer.buffers().len();
            if count > 0 {
                layer.set_buffers(rest.by_ref().take(count).collect());
            }
        }
    }

    /// Replay the buffer updates of a training-mode [`Network::forward`]
    /// from its `caches` (see [`Layer::apply_batch_stats`]).
    pub(crate) fn apply_batch_stats(&mut self, caches: &[Cache]) {
        self.invalidate_plan();
        for (layer, cache) in self.layers.iter().zip(caches) {
            layer.apply_batch_stats(cache);
        }
    }

    /// Per-layer kind names (for summaries and save-file validation).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Run the forward pass up to (and including) layer `upto`, returning the
    /// intermediate activation — used for feature-map inspection (Figure 16).
    ///
    /// # Panics
    ///
    /// Panics if `upto >= depth()`.
    pub fn activation_at(&self, x: &Tensor, upto: usize) -> Tensor {
        assert!(upto < self.layers.len(), "layer index out of range");
        let mut activ = x.clone();
        for layer in &self.layers[..=upto] {
            activ = layer.forward(&activ, Mode::Eval).0;
        }
        activ
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("layers", &self.layer_names())
            .field("multiplier", &self.multiplier.as_ref().map(|m| m.name()).unwrap_or("native"))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use da_arith::MultiplierKind;
    use rand::SeedableRng;

    fn tiny_cnn(rng: &mut rand::rngs::StdRng) -> Network {
        Network::new("tiny-cnn")
            .push(Conv2d::new(1, 4, 3, 1, 0, rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Flatten)
            .push(Dense::new(4 * 3 * 3, 10, rng))
    }

    #[test]
    fn forward_shapes_through_a_cnn() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[3, 1, 8, 8], 1.0, &mut rng);
        assert_eq!(net.logits(&x).shape(), &[3, 10]);
        assert_eq!(net.predict(&x).len(), 3);
    }

    #[test]
    fn probabilities_are_distributions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[2, 1, 8, 8], 1.0, &mut rng);
        let p = net.probabilities(&x);
        for i in 0..2 {
            let s: f32 = p.data()[i * 10..(i + 1) * 10].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        let labels = [7usize];
        let (_, grad) = net.input_gradient(&x, &labels);
        let eps = 1e-2f32;
        for i in (0..64).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let (lp, _) = net.input_gradient(&xp, &labels);
            let (lm, _) = net.input_gradient(&xm, &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[i]).abs() < 2e-2 * (1.0 + numeric.abs()),
                "at {i}: {numeric} vs {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn class_gradient_selects_single_logit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        let g = net.class_gradient(&x, 3);
        assert_eq!(g.shape(), x.shape());
        let eps = 1e-2f32;
        let mut xp = x.clone();
        xp.data_mut()[10] += eps;
        let mut xm = x.clone();
        xm.data_mut()[10] -= eps;
        let numeric = (net.logits(&xp).data()[3] - net.logits(&xm).data()[3]) / (2.0 * eps);
        assert!((numeric - g.data()[10]).abs() < 2e-2 * (1.0 + numeric.abs()));
    }

    #[test]
    fn set_multiplier_changes_outputs_and_back() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut net = tiny_cnn(&mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, &mut rng);
        let exact = net.logits(&x);
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        assert_eq!(net.multiplier().map(|m| m.name()), Some("ax-fpm"));
        let approx = net.logits(&x);
        assert_ne!(exact, approx);
        net.set_multiplier(None);
        assert_eq!(net.logits(&x), exact, "clearing restores exact behaviour");
    }

    #[test]
    fn accuracy_counts_matches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
        let preds = net.predict(&x);
        assert_eq!(net.accuracy(&x, &preds), 1.0);
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 10).collect();
        assert_eq!(net.accuracy(&x, &wrong), 0.0);
    }

    #[test]
    fn activation_at_returns_intermediate_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[1, 1, 8, 8], 1.0, &mut rng);
        assert_eq!(net.activation_at(&x, 0).shape(), &[1, 4, 6, 6]);
        assert_eq!(net.activation_at(&x, 2).shape(), &[1, 4, 3, 3]);
    }
}
