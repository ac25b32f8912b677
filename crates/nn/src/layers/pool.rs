//! Max pooling.

use da_tensor::ops::ConvGeometry;
use da_tensor::Tensor;

use super::{Cache, Layer, Mode};
use crate::engine::CompiledLayer;

/// Batched NCHW max pooling (multiplication-free, so identical between exact
/// and approximate classifiers — paper §4.2).
///
/// # Examples
///
/// ```
/// use da_nn::layers::{Layer, MaxPool2d, Mode};
/// use da_tensor::Tensor;
///
/// let pool = MaxPool2d::new(2, 2);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
/// let (y, _) = pool.forward(&x, Mode::Eval);
/// assert_eq!(y.data(), &[4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
}

impl MaxPool2d {
    /// A pooling window of `kernel × kernel` moved by `stride`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        MaxPool2d { kernel, stride }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&self, x: &Tensor, _mode: Mode) -> (Tensor, Cache) {
        assert_eq!(x.shape().len(), 4, "MaxPool2d expects [N, C, H, W]");
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let geom = ConvGeometry {
            input: (h, w),
            kernel: (self.kernel, self.kernel),
            stride: self.stride,
            pad: 0,
        };
        let (oh, ow) = geom.output();

        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let mut argmax = vec![0usize; n * c * oh * ow];
        let xd = x.data();
        let od = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let plane = &xd[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        // A window with no value above -inf (all -inf or
                        // NaN) routes its gradient to its own first tap.
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = oy * self.stride * w + ox * self.stride;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let v = plane[iy * w + ix];
                                if v > best {
                                    best = v;
                                    best_idx = iy * w + ix;
                                }
                            }
                        }
                        let o = ((ni * c + ci) * oh + oy) * ow + ox;
                        od[o] = best;
                        argmax[o] = (ni * c + ci) * h * w + best_idx;
                    }
                }
            }
        }

        let cache = Cache {
            tensors: Vec::new(),
            indices: {
                let mut v = vec![n, c, h, w];
                v.extend(argmax);
                v
            },
        };
        (out, cache)
    }

    fn backward(&self, cache: &Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
        let (n, c, h, w) = (cache.indices[0], cache.indices[1], cache.indices[2], cache.indices[3]);
        let argmax = &cache.indices[4..];
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dxd = dx.data_mut();
        for (g, &src) in grad.data().iter().zip(argmax) {
            dxd[src] += g;
        }
        (dx, Vec::new())
    }

    fn compile_eval(&self) -> Option<CompiledLayer> {
        Some(CompiledLayer::MaxPool2d { kernel: self.kernel, stride: self.stride })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pools_known_windows() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.5, //
                -3.0, -4.0, 0.25, 0.75,
            ],
            &[1, 1, 4, 4],
        );
        let pool = MaxPool2d::new(2, 2);
        let (y, _) = pool.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[4.0, 8.0, -1.0, 0.75]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax_only() {
        let x = Tensor::from_vec(vec![1.0, 9.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let pool = MaxPool2d::new(2, 2);
        let (_, cache) = pool.forward(&x, Mode::Eval);
        let grad = Tensor::from_vec(vec![2.5], &[1, 1, 1, 1]);
        let (dx, params) = pool.backward(&cache, &grad);
        assert!(params.is_empty());
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn window_without_a_maximum_routes_gradient_inside_itself() {
        let inf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, inf, inf, 3.0, 4.0, inf, f32::NAN], &[1, 1, 2, 4]);
        let pool = MaxPool2d::new(2, 2);
        let (y, cache) = pool.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[4.0, inf]);
        let (dx, _) = pool.backward(&cache, &Tensor::from_vec(vec![10.0, 1.0], &[1, 1, 1, 2]));
        assert_eq!(dx.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 10.0, 0.0, 0.0]);
    }

    #[test]
    fn overlapping_windows_accumulate_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let pool = MaxPool2d::new(3, 1); // 2×2 outputs with overlap
        let (y, cache) = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        let grad = Tensor::ones(&[1, 1, 2, 2]);
        let (dx, _) = pool.backward(&cache, &grad);
        // Total gradient mass is conserved.
        assert!((dx.sum() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn shapes_follow_stride() {
        let pool = MaxPool2d::new(2, 2);
        let x = Tensor::zeros(&[3, 5, 8, 8]);
        let (y, _) = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[3, 5, 4, 4]);
    }
}
