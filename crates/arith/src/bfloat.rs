//! Bfloat16 (Brain Floating Point) arithmetic, the reduced-precision baseline
//! of paper §7.2.
//!
//! Bfloat16 keeps binary32's 8-bit exponent but truncates the mantissa to
//! 7 bits. The paper's Bfloat16 multiplier shares the Ax-FPM architecture but
//! uses an exact Booth mantissa multiplier; the dominant error source is the
//! mantissa truncation of the operands and the result. We model truncation
//! (round toward zero), which matches the paper's observation that the
//! resulting noise is "mostly negative" with magnitude orders below Ax-FPM
//! (Figure 13).

use crate::batch::{gemm_tile_rows, BatchKernel};
use crate::multiplier::Multiplier;
use crate::simd::{self, RowClass};

/// Truncate an `f32` to bfloat16 precision (drop the low 16 mantissa bits).
///
/// # Examples
///
/// ```
/// use da_arith::bfloat::to_bf16;
///
/// assert_eq!(to_bf16(1.0), 1.0);
/// let x = 0.3_f32;
/// let t = to_bf16(x);
/// assert!(t <= x && (x - t) / x < 1.0 / 128.0);
/// ```
#[inline]
pub fn to_bf16(x: f32) -> f32 {
    f32::from_bits(x.to_bits() & 0xFFFF_0000)
}

/// `true` if the value is exactly representable in bfloat16.
pub fn is_bf16(x: f32) -> bool {
    x.to_bits() & 0x0000_FFFF == 0
}

/// The Bfloat16 multiplier: truncate operands, multiply exactly, truncate
/// the product.
///
/// # Examples
///
/// ```
/// use da_arith::{Multiplier, bfloat::BfloatMultiplier};
///
/// let m = BfloatMultiplier;
/// let r = m.multiply(0.3, 0.7);
/// // Truncation never increases magnitude.
/// assert!(r.abs() <= (0.3_f32 * 0.7).abs());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BfloatMultiplier;

impl Multiplier for BfloatMultiplier {
    fn multiply(&self, a: f32, b: f32) -> f32 {
        to_bf16(to_bf16(a) * to_bf16(b))
    }

    fn name(&self) -> &str {
        "bfloat16"
    }

    // Slice overrides route through the lane kernels of [`crate::simd`]
    // (autovectorized): pure bit-mask + multiply pipelines with no calls.
    // NaN-free product streams run the plain fused loops, operands carrying
    // Inf/NaN pin NaN payload propagation (see
    // `crate::simd::nan_stable_add`).

    fn multiply_slice(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        simd::bf16_mul(a, b, out);
    }

    fn dot_accumulate(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_accumulate length mismatch");
        // Lane-compute the products block by block, then accumulate in
        // slice order (the reduction order is part of the bit-exactness
        // contract, so only the products are vectorized).
        let mut acc = 0.0f32;
        if simd::pair_has_special(a, b) {
            for (&x, &y) in a.iter().zip(b) {
                acc = simd::nan_stable_add(acc, to_bf16(to_bf16(x) * to_bf16(y)));
            }
            return acc;
        }
        let mut buf = [0.0f32; 8 * simd::LANES];
        for (ac, bc) in a.chunks(buf.len()).zip(b.chunks(buf.len())) {
            let prods = &mut buf[..ac.len()];
            simd::bf16_mul(ac, bc, prods);
            for &p in prods.iter() {
                acc += p;
            }
        }
        acc
    }

    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_> {
        Box::new(BfloatBatchKernel)
    }
}

/// The batched kernel behind [`BfloatMultiplier::batch_kernel`]: the lane
/// kernel with the shared operand's truncation hoisted (bit-identical to
/// truncating it per element). Truncation and the native multiply handle
/// zeros like any other finite value, so only `Special` rows take the
/// NaN-pinned accumulate.
struct BfloatBatchKernel;

impl BatchKernel for BfloatBatchKernel {
    fn axpy(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]) {
        debug_assert!(class.covers(simd::classify_row(b)), "stale row class");
        let ta = to_bf16(a);
        simd::bf16_axpy(ta, b, acc, simd::clean_axpy(ta, class));
    }

    fn gemm_tile(
        &mut self,
        w: &[f32],
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        gemm_tile_rows(w, b, tile, class, acc, acc_stride, |wrow, acc_row| {
            for (&a, brow) in wrow.iter().zip(b.chunks_exact(tile)) {
                let ta = to_bf16(a);
                simd::bf16_axpy(ta, brow, acc_row, simd::clean_axpy(ta, class));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn truncation_is_idempotent_and_magnitude_reducing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let x = rng.gen_range(-10.0f32..10.0);
            let t = to_bf16(x);
            assert_eq!(to_bf16(t), t);
            assert!(t.abs() <= x.abs());
            assert!(is_bf16(t));
            if x != 0.0 {
                assert!((x - t).abs() / x.abs() < 1.0 / 128.0, "x={x} t={t}");
            }
        }
    }

    #[test]
    fn product_error_is_never_positive_in_magnitude() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let m = BfloatMultiplier;
        for _ in 0..5000 {
            let a = rng.gen_range(0.0f32..1.0);
            let b = rng.gen_range(0.0f32..1.0);
            let exact = (a as f64) * (b as f64);
            let approx = m.multiply(a, b) as f64;
            assert!(approx <= exact + 1e-12, "a={a} b={b}");
        }
    }

    #[test]
    fn relative_error_is_small() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = BfloatMultiplier;
        for _ in 0..5000 {
            let a = rng.gen_range(0.05f32..1.0);
            let b = rng.gen_range(0.05f32..1.0);
            let exact = (a as f64) * (b as f64);
            let approx = m.multiply(a, b) as f64;
            // Three truncations of < 2^-7 relative each.
            assert!((exact - approx) / exact < 3.0 / 128.0, "a={a} b={b}");
        }
    }

    #[test]
    fn specials_and_zero() {
        let m = BfloatMultiplier;
        assert_eq!(m.multiply(0.0, 3.0), 0.0);
        assert!(m.multiply(f32::NAN, 3.0).is_nan());
        assert_eq!(m.multiply(f32::INFINITY, 2.0), f32::INFINITY);
        assert_eq!(m.name(), "bfloat16");
    }

    #[test]
    fn bf16_representable_values_are_multiplied_closely() {
        // Products of bf16 values only incur the final truncation.
        let m = BfloatMultiplier;
        let a = to_bf16(0.5);
        let b = to_bf16(0.25);
        assert_eq!(m.multiply(a, b), 0.125);
    }
}
