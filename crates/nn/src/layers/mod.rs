//! Network layers.
//!
//! Every layer implements [`Layer`]: a pure `forward` producing the output
//! and a [`Cache`], and a `backward` consuming that cache. Layers with
//! learnable parameters expose them positionally via `params`/`params_mut`;
//! `backward` returns parameter gradients in the same order.

use std::sync::Arc;

use da_arith::Multiplier;
use da_tensor::Tensor;

mod approx;
mod conv;
mod dense;
mod norm;
mod pool;
mod simple;

pub use approx::{gemm_with, matmul_with_scalar, transpose2d};
pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::BatchNorm;
pub use pool::MaxPool2d;
pub use simple::{Dropout, Flatten, QuantAct, Relu};

/// Forward-pass mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Inference: dropout disabled, batch norm uses running statistics.
    Eval,
    /// Training: the seed drives per-batch stochastic layers (dropout).
    Train {
        /// Batch-level seed; layers derive their own stream from it.
        seed: u64,
    },
}

impl Mode {
    /// Derive a per-layer mode so stacked stochastic layers decorrelate.
    pub fn for_layer(self, layer_index: usize) -> Mode {
        match self {
            Mode::Eval => Mode::Eval,
            Mode::Train { seed } => Mode::Train {
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(layer_index as u64 + 1),
            },
        }
    }

    /// `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train { .. })
    }
}

/// Opaque per-layer forward state consumed by `backward`.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    /// Saved tensors (inputs, masks, normalized activations, ...).
    pub tensors: Vec<Tensor>,
    /// Saved index data (pooling argmaxes, shapes).
    pub indices: Vec<usize>,
}

impl Cache {
    /// An empty cache for stateless layers.
    pub fn none() -> Cache {
        Cache::default()
    }

    /// A cache holding one tensor.
    pub fn with_tensor(t: Tensor) -> Cache {
        Cache { tensors: vec![t], indices: Vec::new() }
    }
}

/// A differentiable network layer.
///
/// Object-safe so a [`crate::Network`] can hold heterogeneous stacks.
pub trait Layer: Send + Sync {
    /// Stable layer-kind name (used in summaries and serialization checks).
    fn name(&self) -> &'static str;

    /// Compute the output for a batched input and the state `backward` needs.
    fn forward(&self, x: &Tensor, mode: Mode) -> (Tensor, Cache);

    /// Propagate `grad` (∂L/∂output) to the input, returning
    /// `(∂L/∂input, parameter gradients aligned with params())`.
    fn backward(&self, cache: &Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>);

    /// Learnable parameters (empty for stateless layers).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    /// Mutable learnable parameters, same order as `params`.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Non-learnable state that evaluation reads (batch-norm running
    /// statistics), as copies. Default: none.
    fn buffers(&self) -> Vec<Tensor> {
        Vec::new()
    }

    /// Replace the state [`Layer::buffers`] reports, given in the same order
    /// and shapes.
    fn set_buffers(&mut self, _buffers: Vec<Tensor>) {}

    /// Fold the batch statistics that a training-mode [`Layer::forward`]
    /// recorded in `cache` into the [`Layer::buffers`] state, exactly as
    /// that forward already did. Training replays concurrent shards'
    /// updates through this in a fixed order. Default: no-op.
    fn apply_batch_stats(&self, _cache: &Cache) {}

    /// Install (or clear) the approximate multiplier used by this layer's
    /// forward inner products. Default: no-op for layers without multiplies.
    fn set_multiplier(&mut self, _multiplier: Option<Arc<dyn Multiplier>>) {}

    /// The layer's compiled serving-time form, consumed by
    /// [`crate::engine::InferencePlan::compile`]: a snapshot of the
    /// evaluation-mode behavior (effective weights, running statistics).
    ///
    /// Default `None` for layers without a compiled form — the engine then
    /// declines to compile the whole network and [`crate::Network::logits`]
    /// falls back to the per-layer forward pass.
    fn compile_eval(&self) -> Option<crate::engine::CompiledLayer> {
        None
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::*;

    /// Compare analytic input gradients against central finite differences
    /// through an arbitrary scalar loss `L = Σ out ⊙ w`.
    pub fn check_input_gradient(layer: &dyn Layer, x: &Tensor, tol: f32) {
        let mode = Mode::Eval;
        let (out, cache) = layer.forward(x, mode);
        // Fixed pseudo-random loss weights make the test sensitive everywhere.
        let w: Vec<f32> =
            (0..out.len()).map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.5).collect();
        let grad_out = Tensor::from_vec(w.clone(), out.shape());
        let (grad_in, _) = layer.backward(&cache, &grad_out);

        let eps = 1e-2f32;
        for i in (0..x.len()).step_by((x.len() / 24).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 =
                layer.forward(&xp, mode).0.data().iter().zip(&w).map(|(a, b)| a * b).sum();
            let lm: f32 =
                layer.forward(&xm, mode).0.data().iter().zip(&w).map(|(a, b)| a * b).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "input grad mismatch at {i}: numeric={numeric} analytic={analytic}"
            );
        }
    }

    /// Compare analytic parameter gradients against finite differences.
    pub fn check_param_gradients<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        let mode = Mode::Eval;
        let (out, cache) = layer.forward(x, mode);
        let w: Vec<f32> =
            (0..out.len()).map(|i| ((i * 1103515245) % 1000) as f32 / 1000.0 - 0.5).collect();
        let grad_out = Tensor::from_vec(w.clone(), out.shape());
        let (_, param_grads) = layer.backward(&cache, &grad_out);
        assert_eq!(param_grads.len(), layer.params().len());

        let eps = 1e-2f32;
        for p in 0..param_grads.len() {
            let n = layer.params()[p].len();
            for i in (0..n).step_by((n / 12).max(1)) {
                let orig = layer.params()[p].data()[i];
                layer.params_mut()[p].data_mut()[i] = orig + eps;
                let lp: f32 =
                    layer.forward(x, mode).0.data().iter().zip(&w).map(|(a, b)| a * b).sum();
                layer.params_mut()[p].data_mut()[i] = orig - eps;
                let lm: f32 =
                    layer.forward(x, mode).0.data().iter().zip(&w).map(|(a, b)| a * b).sum();
                layer.params_mut()[p].data_mut()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = param_grads[p].data()[i];
                assert!(
                    (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                    "param {p} grad mismatch at {i}: numeric={numeric} analytic={analytic}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_seeds_differ_per_layer() {
        let m = Mode::Train { seed: 7 };
        let a = m.for_layer(0);
        let b = m.for_layer(1);
        assert_ne!(a, b);
        assert_eq!(Mode::Eval.for_layer(3), Mode::Eval);
    }

    #[test]
    fn mode_train_detection() {
        assert!(Mode::Train { seed: 0 }.is_train());
        assert!(!Mode::Eval.is_train());
    }
}
