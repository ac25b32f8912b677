//! 2-D convolution with a pluggable forward multiplier.

use std::sync::Arc;

use da_arith::Multiplier;
use da_tensor::ops::{col2im, im2col, matmul, ConvGeometry};
use da_tensor::parallel::par_map_chunks;
use da_tensor::Tensor;

use super::approx::{gemm_with, transpose2d};
use super::{Cache, Layer, Mode};
use crate::engine::CompiledLayer;
use crate::quant::dorefa_quantize_weights;

/// A batched NCHW 2-D convolution layer.
///
/// The forward inner products go through the installed
/// [`Multiplier`] — swapping in Ax-FPM here is the paper's entire deployment
/// story. Backward is always exact (straight-through estimator, crate docs).
///
/// # Examples
///
/// ```
/// use da_nn::layers::{Conv2d, Layer, Mode};
/// use da_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let conv = Conv2d::new(1, 4, 3, 1, 1, &mut rng);
/// let x = Tensor::randn(&[2, 1, 8, 8], 1.0, &mut rng);
/// let (y, _) = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 4, 8, 8]);
/// ```
pub struct Conv2d {
    weight: Tensor, // [Cout, Cin, Kh, Kw]
    bias: Tensor,   // [Cout]
    stride: usize,
    pad: usize,
    multiplier: Option<Arc<dyn Multiplier>>,
    /// DoReFa weight quantization bit-width (Defensive Quantization).
    weight_bits: Option<u32>,
}

impl Conv2d {
    /// He-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: rand::Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0);
        let fan_in = (in_channels * kernel * kernel) as f32;
        Conv2d {
            weight: Tensor::randn(
                &[out_channels, in_channels, kernel, kernel],
                (2.0 / fan_in).sqrt(),
                rng,
            ),
            bias: Tensor::zeros(&[out_channels]),
            stride,
            pad,
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

    /// The geometry for an input of spatial size `(h, w)`.
    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry {
            input: (h, w),
            kernel: (self.weight.shape()[2], self.weight.shape()[3]),
            stride: self.stride,
            pad: self.pad,
        }
    }

    /// The weights actually used in the forward pass (quantized if enabled).
    fn effective_weight(&self) -> Tensor {
        match self.weight_bits {
            Some(bits) => dorefa_quantize_weights(&self.weight, bits),
            None => self.weight.clone(),
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&self, x: &Tensor, _mode: Mode) -> (Tensor, Cache) {
        assert_eq!(x.shape().len(), 4, "Conv2d expects [N, C, H, W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.weight.shape()[1], "input channel mismatch");
        let geom = self.geometry(h, w);
        let (oh, ow) = geom.output();
        let cout = self.weight.shape()[0];
        let k2 = self.weight.shape()[2] * self.weight.shape()[3];
        // `effective_weight` already hands back an owned tensor; reshape it
        // in place instead of cloning a second time.
        let wmat = self.effective_weight().reshape(&[cout, c * k2]);

        let item_len = cout * oh * ow;
        let mut out = vec![0.0f32; n * item_len];
        let run_item = |i: usize, piece: &mut [f32]| {
            let cols = im2col(&x.batch_item(i), geom);
            let y = match &self.multiplier {
                Some(m) => gemm_with(&**m, &wmat, &cols),
                None => matmul(&wmat, &cols),
            };
            piece.copy_from_slice(y.data());
            for co in 0..cout {
                let b = self.bias.data()[co];
                for v in &mut piece[co * oh * ow..(co + 1) * oh * ow] {
                    *v += b;
                }
            }
        };
        if self.multiplier.is_some() && n > 1 {
            // Gate-level multipliers dominate runtime; spread items over
            // CPUs. Each worker writes its item's disjoint output chunk
            // directly — no locking, no slot collection.
            par_map_chunks(&mut out, item_len, run_item);
        } else {
            for (i, piece) in out.chunks_mut(item_len).enumerate() {
                run_item(i, piece);
            }
        }

        (Tensor::from_vec(out, &[n, cout, oh, ow]), Cache::with_tensor(x.clone()))
    }

    fn backward(&self, cache: &Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
        let x = &cache.tensors[0];
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let geom = self.geometry(h, w);
        let (oh, ow) = geom.output();
        let cout = self.weight.shape()[0];
        let k2 = self.weight.shape()[2] * self.weight.shape()[3];

        // Straight-through: gradients flow through the *effective* weights,
        // and land on the latent weights unchanged.
        let wmat_t = transpose2d(&self.effective_weight().reshape(&[cout, c * k2])); // [C·K², Cout]

        let mut dw = Tensor::zeros(&[cout, c * k2]);
        let mut db = Tensor::zeros(&[cout]);
        let mut dx_items = Vec::with_capacity(n);
        for i in 0..n {
            let gi = grad.batch_item(i).reshape(&[cout, oh * ow]);
            let cols = im2col(&x.batch_item(i), geom);
            // dW += gi · colsᵀ
            dw.add_assign(&matmul(&gi, &transpose2d(&cols)));
            // db += row sums of gi
            for co in 0..cout {
                db.data_mut()[co] +=
                    gi.data()[co * oh * ow..(co + 1) * oh * ow].iter().sum::<f32>();
            }
            // dX = col2im(Wᵀ · gi)
            let dcols = matmul(&wmat_t, &gi);
            dx_items.push(col2im(&dcols, c, geom));
        }

        let dw = dw.reshape(self.weight.shape());
        (Tensor::stack(&dx_items), vec![dw, db])
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
        Some(CompiledLayer::Conv2d {
            weight: self.effective_weight(),
            bias: self.bias.clone(),
            stride: self.stride,
            pad: self.pad,
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
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = rng();
        let conv = Conv2d::new(3, 8, 5, 1, 0, &mut rng);
        let x = Tensor::randn(&[2, 3, 12, 12], 1.0, &mut rng);
        let (y, _) = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn bias_shifts_every_output() {
        let mut rng = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::randn(&[1, 1, 5, 5], 1.0, &mut rng);
        let (y0, _) = conv.forward(&x, Mode::Eval);
        conv.params_mut()[1].data_mut()[0] = 10.0;
        let (y1, _) = conv.forward(&x, Mode::Eval);
        for i in 0..9 {
            assert!((y1.data()[i] - y0.data()[i] - 10.0).abs() < 1e-5);
        }
        for i in 9..18 {
            assert!((y1.data()[i] - y0.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut rng = rng();
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        gradcheck::check_input_gradient(&conv, &x, 2e-2);
    }

    #[test]
    fn param_gradients_match_finite_differences() {
        let mut rng = rng();
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 7, 7], 1.0, &mut rng);
        gradcheck::check_param_gradients(&mut conv, &x, 2e-2);
    }

    #[test]
    fn approximate_forward_differs_but_correlates() {
        let mut rng = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::rand_uniform(&[1, 1, 6, 6], 0.0, 1.0, &mut rng);
        let (exact, _) = conv.forward(&x, Mode::Eval);
        conv.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let (approx, _) = conv.forward(&x, Mode::Eval);
        assert_ne!(exact, approx, "approximation must perturb outputs");
        // Outputs stay in the same ballpark (bounded 2x-per-product noise).
        for (a, e) in approx.data().iter().zip(exact.data()) {
            assert!((a - e).abs() <= e.abs() + 1.0);
        }
    }

    #[test]
    fn parallel_batch_forward_matches_sequential() {
        let mut rng = rng();
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        conv.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let x = Tensor::randn(&[6, 2, 8, 8], 1.0, &mut rng);
        let (batched, _) = conv.forward(&x, Mode::Eval);
        for i in 0..6 {
            let xi = Tensor::stack(&[x.batch_item(i)]);
            let (yi, _) = conv.forward(&xi, Mode::Eval);
            assert_eq!(batched.batch_item(i), yi.batch_item(0), "item {i}");
        }
    }

    #[test]
    fn quantized_weights_take_discrete_levels() {
        let mut rng = rng();
        let conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng).with_weight_bits(2);
        let w = conv.effective_weight();
        // 2-bit DoReFa admits 4 levels in [-1, 1]: -1, -1/3, 1/3, 1.
        for &v in w.data() {
            let scaled = (v + 1.0) * 1.5;
            assert!((scaled - scaled.round()).abs() < 1e-5, "non-level weight {v}");
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_input_channels() {
        let mut rng = rng();
        let conv = Conv2d::new(3, 4, 3, 1, 0, &mut rng);
        let x = Tensor::zeros(&[1, 2, 8, 8]);
        let _ = conv.forward(&x, Mode::Eval);
    }
}
