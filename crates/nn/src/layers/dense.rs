//! Fully connected layer with a pluggable forward multiplier.

use std::sync::Arc;

use da_arith::Multiplier;
use da_tensor::ops::matmul;
use da_tensor::Tensor;

use super::approx::{gemm_with, transpose2d};
use super::{Cache, Layer, Mode};
use crate::engine::CompiledLayer;
use crate::quant::dorefa_quantize_weights;

/// `y = x · Wᵀ + b` over a `[N, In]` batch.
///
/// # Examples
///
/// ```
/// use da_nn::layers::{Dense, Layer, Mode};
/// use da_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let fc = Dense::new(4, 3, &mut rng);
/// let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
/// let (y, _) = fc.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 3]);
/// ```
pub struct Dense {
    weight: Tensor, // [Out, In]
    bias: Tensor,   // [Out]
    multiplier: Option<Arc<dyn Multiplier>>,
    weight_bits: Option<u32>,
}

impl Dense {
    /// He-initialized fully connected layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: rand::Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0 && out_features > 0);
        Dense {
            weight: Tensor::randn(
                &[out_features, in_features],
                (2.0 / in_features as f32).sqrt(),
                rng,
            ),
            bias: Tensor::zeros(&[out_features]),
            multiplier: None,
            weight_bits: None,
        }
    }

    /// Enable DoReFa weight quantization at `bits` (builder-style).
    pub fn with_weight_bits(mut self, bits: u32) -> Self {
        assert!(bits >= 1, "quantization needs at least 1 bit");
        self.weight_bits = Some(bits);
        self
    }

    fn effective_weight(&self) -> Tensor {
        match self.weight_bits {
            Some(bits) => dorefa_quantize_weights(&self.weight, bits),
            None => self.weight.clone(),
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&self, x: &Tensor, _mode: Mode) -> (Tensor, Cache) {
        assert_eq!(x.shape().len(), 2, "Dense expects [N, In]");
        assert_eq!(x.shape()[1], self.weight.shape()[1], "feature mismatch");
        let wt = transpose2d(&self.effective_weight()); // [In, Out]
        let mut out = match &self.multiplier {
            Some(m) => gemm_with(&**m, x, &wt),
            None => matmul(x, &wt),
        };
        let (n, o) = (out.shape()[0], out.shape()[1]);
        let od = out.data_mut();
        for i in 0..n {
            for j in 0..o {
                od[i * o + j] += self.bias.data()[j];
            }
        }
        (out, Cache::with_tensor(x.clone()))
    }

    fn backward(&self, cache: &Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let weight = self.effective_weight();
        // dX = dY · W ; dW = dYᵀ · X ; db = column sums of dY.
        let dx = matmul(grad, &weight);
        let dw = matmul(&transpose2d(grad), x);
        let (n, o) = (grad.shape()[0], grad.shape()[1]);
        let mut db = Tensor::zeros(&[o]);
        for i in 0..n {
            for j in 0..o {
                db.data_mut()[j] += grad.data()[i * o + j];
            }
        }
        (dx, vec![dw, db])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_multiplier(&mut self, multiplier: Option<Arc<dyn Multiplier>>) {
        self.multiplier = multiplier;
    }

    fn compile_eval(&self) -> Option<CompiledLayer> {
        Some(CompiledLayer::Dense {
            weight: self.effective_weight(),
            bias: self.bias.clone(),
            multiplier: self.multiplier.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use da_arith::MultiplierKind;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(6)
    }

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = rng();
        let mut fc = Dense::new(2, 2, &mut rng);
        fc.params_mut()[0].data_mut().copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        fc.params_mut()[1].data_mut().copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let (y, _) = fc.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = rng();
        let fc = Dense::new(5, 4, &mut rng);
        let x = Tensor::randn(&[3, 5], 1.0, &mut rng);
        gradcheck::check_input_gradient(&fc, &x, 1e-2);
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut fc = Dense::new(4, 3, &mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut fc, &x, 1e-2);
    }

    #[test]
    fn approximate_dense_perturbs_output() {
        let mut rng = rng();
        let mut fc = Dense::new(8, 4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 8], 0.1, 1.0, &mut rng);
        let (exact, _) = fc.forward(&x, Mode::Eval);
        fc.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let (approx, _) = fc.forward(&x, Mode::Eval);
        assert_ne!(exact, approx);
    }

    #[test]
    fn quantized_dense_uses_discrete_levels() {
        let mut rng = rng();
        let fc = Dense::new(10, 3, &mut rng).with_weight_bits(4);
        let w = fc.effective_weight();
        let levels = (1u32 << 4) - 1;
        for &v in w.data() {
            let scaled = (v + 1.0) / 2.0 * levels as f32;
            assert!((scaled - scaled.round()).abs() < 1e-4, "non-level weight {v}");
        }
    }

    #[test]
    #[should_panic(expected = "feature mismatch")]
    fn rejects_wrong_input_width() {
        let mut rng = rng();
        let fc = Dense::new(4, 2, &mut rng);
        let _ = fc.forward(&Tensor::zeros(&[1, 5]), Mode::Eval);
    }
}
