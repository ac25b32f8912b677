//! Linear-algebra kernels: matrix multiplication and convolution lowering.

use crate::parallel::par_map_chunks;
use crate::Tensor;

/// Below this many multiply-adds a matmul runs single-threaded: spawning
/// scoped worker threads costs more than the arithmetic saves. Measured
/// break-even on a 2-vCPU x86-64 container: two workers lose in wall time
/// up to ~1M MACs (86k MACs: 65 µs vs 24 µs on one CPU) and win from ~2M
/// (2.1M: 294 µs vs 317 µs).
const PAR_MIN_MACS: usize = 1 << 21;

/// `C = A · B` for row-major `A: [m, k]`, `B: [k, n]`.
///
/// Uses the cache-friendly `i-k-j` loop order; large products distribute
/// output rows across worker threads (each row's accumulation order is
/// unchanged, so results are bit-identical to the sequential loop).
///
/// # Panics
///
/// Panics if the inner dimensions disagree or inputs are not rank-2.
///
/// # Examples
///
/// ```
/// use da_tensor::{ops::matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be rank-2");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be rank-2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimensions {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    if n == 0 {
        // Zero-width result: nothing to compute (and chunking by 0 would
        // panic below).
        return Tensor::from_vec(out, &[m, n]);
    }
    let ad = a.data();
    let bd = b.data();
    let row = |i: usize, orow: &mut [f32]| {
        let arow = &ad[i * k..(i + 1) * k];
        for (kk, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    };
    if m > 1 && m * k * n >= PAR_MIN_MACS {
        par_map_chunks(&mut out, n, row);
    } else {
        for (i, orow) in out.chunks_mut(n).enumerate() {
            row(i, orow);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Spatial geometry of a 2-D convolution/pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Input height and width.
    pub input: (usize, usize),
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeometry {
    /// Output `(height, width)`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (with padding) does not fit the input or the
    /// stride is zero.
    pub fn output(&self) -> (usize, usize) {
        assert!(self.stride > 0, "stride must be positive");
        let (h, w) = self.input;
        let (kh, kw) = self.kernel;
        assert!(
            h + 2 * self.pad >= kh && w + 2 * self.pad >= kw,
            "kernel {:?} larger than padded input {:?}+{}",
            self.kernel,
            self.input,
            self.pad
        );
        ((h + 2 * self.pad - kh) / self.stride + 1, (w + 2 * self.pad - kw) / self.stride + 1)
    }
}

/// Lower a single `[C, H, W]` image into the im2col matrix
/// `[C·Kh·Kw, Oh·Ow]`, so convolution becomes one [`matmul`].
///
/// # Panics
///
/// Panics if `image` is not rank-3 or the geometry's input size disagrees.
pub fn im2col(image: &Tensor, geom: ConvGeometry) -> Tensor {
    assert_eq!(image.shape().len(), 3, "im2col expects [C, H, W]");
    let (c, h, w) = (image.shape()[0], image.shape()[1], image.shape()[2]);
    assert_eq!((h, w), geom.input, "geometry input mismatch");
    let (kh, kw) = geom.kernel;
    let (oh, ow) = geom.output();
    let data = image.data();

    let mut out = vec![0.0f32; c * kh * kw * oh * ow];
    let cols = oh * ow;
    let mut row = 0usize;
    for ch in 0..c {
        let plane = &data[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue; // zero padding
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            out_row[oy * ow + ox] = src[ix as usize];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    Tensor::from_vec(out, &[c * kh * kw, cols])
}

/// Scatter an im2col matrix back to image space (the adjoint of [`im2col`]),
/// accumulating overlapping windows. Used by convolution's input gradient.
///
/// # Panics
///
/// Panics if `cols`'s shape disagrees with the geometry for `channels`.
pub fn col2im(cols: &Tensor, channels: usize, geom: ConvGeometry) -> Tensor {
    let (kh, kw) = geom.kernel;
    let (oh, ow) = geom.output();
    let (h, w) = geom.input;
    assert_eq!(cols.shape(), &[channels * kh * kw, oh * ow], "col2im shape mismatch");

    let mut out = Tensor::zeros(&[channels, h, w]);
    let data = cols.data();
    let out_data = out.data_mut();
    let mut row = 0usize;
    for ch in 0..channels {
        let plane = &mut out_data[ch * h * w..(ch + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let src_row = &data[row * oh * ow..(row + 1) * oh * ow];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix >= 0 && ix < w as isize {
                            plane[iy as usize * w + ix as usize] += src_row[oy * ow + ox];
                        }
                    }
                }
                row += 1;
            }
        }
    }
    out
}

/// Direct (definition-level) convolution of one `[C, H, W]` image with
/// weights `[Cout, C, Kh, Kw]` — the reference implementation im2col-based
/// convolution is tested against.
///
/// # Panics
///
/// Panics on any shape inconsistency.
pub fn conv2d_direct(image: &Tensor, weights: &Tensor, geom: ConvGeometry) -> Tensor {
    assert_eq!(image.shape().len(), 3, "conv2d_direct expects [C, H, W]");
    assert_eq!(weights.shape().len(), 4, "weights must be [Cout, Cin, Kh, Kw]");
    let c = image.shape()[0];
    assert_eq!(weights.shape()[1], c, "channel mismatch");
    assert_eq!((weights.shape()[2], weights.shape()[3]), geom.kernel);
    let cout = weights.shape()[0];
    let (oh, ow) = geom.output();
    let (h, w) = geom.input;
    let (kh, kw) = geom.kernel;

    let mut out = Tensor::zeros(&[cout, oh, ow]);
    for co in 0..cout {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0f32;
                for ci in 0..c {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            if iy < 0 || iy >= h as isize || ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc +=
                                image[[ci, iy as usize, ix as usize]] * weights[[co, ci, ky, kx]];
                        }
                    }
                }
                out[[co, oy, ox]] = acc;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Tensor::randn(&[5, 5], 1.0, &mut rng);
        let mut eye = Tensor::zeros(&[5, 5]);
        for i in 0..5 {
            eye[[i, i]] = 1.0;
        }
        let c = matmul(&a, &eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_dimension_mismatch() {
        let _ = matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// Regression: zero-width operands (constructible via `from_vec`) yield
    /// an empty result instead of panicking in the chunked row loop.
    #[test]
    fn matmul_handles_zero_width_rhs() {
        let a = Tensor::zeros(&[3, 4]);
        let b = Tensor::from_vec(Vec::new(), &[4, 0]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[3, 0]);
        assert!(c.data().is_empty());
    }

    #[test]
    fn geometry_output_sizes() {
        let g = ConvGeometry { input: (28, 28), kernel: (5, 5), stride: 1, pad: 0 };
        assert_eq!(g.output(), (24, 24));
        let g = ConvGeometry { input: (32, 32), kernel: (3, 3), stride: 1, pad: 1 };
        assert_eq!(g.output(), (32, 32));
        let g = ConvGeometry { input: (24, 24), kernel: (2, 2), stride: 2, pad: 0 };
        assert_eq!(g.output(), (12, 12));
    }

    #[test]
    fn im2col_matmul_equals_direct_convolution() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for (pad, stride) in [(0usize, 1usize), (1, 1), (0, 2), (2, 2)] {
            let geom = ConvGeometry { input: (9, 9), kernel: (3, 3), stride, pad };
            let image = Tensor::randn(&[2, 9, 9], 1.0, &mut rng);
            let weights = Tensor::randn(&[4, 2, 3, 3], 1.0, &mut rng);
            let (oh, ow) = geom.output();

            let direct = conv2d_direct(&image, &weights, geom);
            let cols = im2col(&image, geom);
            let wmat = weights.clone().reshape(&[4, 2 * 3 * 3]);
            let lowered = matmul(&wmat, &cols).reshape(&[4, oh, ow]);

            for (a, b) in direct.data().iter().zip(lowered.data()) {
                assert!((a - b).abs() < 1e-4, "pad={pad} stride={stride}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity,
        // which is exactly what correct convolution backprop needs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let geom = ConvGeometry { input: (7, 7), kernel: (3, 3), stride: 2, pad: 1 };
        let (oh, ow) = geom.output();
        let x = Tensor::randn(&[3, 7, 7], 1.0, &mut rng);
        let y = Tensor::randn(&[3 * 9, oh * ow], 1.0, &mut rng);

        let lhs: f32 = im2col(&x, geom).data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(col2im(&y, 3, geom).data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_zero_padding_regions_are_zero() {
        let geom = ConvGeometry { input: (2, 2), kernel: (3, 3), stride: 1, pad: 1 };
        let image = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&image, geom);
        // Top-left output window: kernel position (0,0) reads padding.
        assert_eq!(cols[[0, 0]], 0.0);
        // Center kernel tap reads the image.
        assert_eq!(cols[[4, 0]], 1.0);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn geometry_rejects_oversized_kernel() {
        let g = ConvGeometry { input: (2, 2), kernel: (5, 5), stride: 1, pad: 0 };
        let _ = g.output();
    }
}
