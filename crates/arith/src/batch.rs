//! The batched arithmetic backend: the per-worker slice kernel.
//!
//! The paper's deployment story routes every convolution/dense multiply
//! through the approximate FPM (§4.1). Simulating that one scalar at a time —
//! a virtual call per MAC into a gate-level bit-sliced multiplier — dominates
//! the runtime of every experiment. [`Multiplier::batch_kernel`] hands
//! callers a per-worker [`BatchKernel`] with two entry points, the two loop
//! shapes every GEMM in the workspace reduces to: an `axpy` (one shared
//! operand against a row) and a `gemm_tile` (a weight block against a patch
//! tile). Closed-form cores run them on the lane kernels of [`crate::simd`];
//! gate-level cores run them on the bit-sliced plane sweep of
//! [`crate::bitslice`].
//!
//! Both take the right-hand rows' [`RowClass`] from the caller, who
//! classifies with the one free function [`classify_row`] (once per row, or
//! once per plane that covers many rows) and may reuse the class across many
//! sweeps.
//!
//! Contract: **every batched path is bit-identical to the scalar
//! [`Multiplier::multiply`] loop it replaces**, for all inputs including
//! NaN/Inf/denormal/negative zero. The GEMM layers above rely on this (see
//! `da_nn::layers::gemm_with` and its property tests).

#[cfg(doc)]
use crate::multiplier::Multiplier;
use crate::simd::{classify_row, RowClass};

/// A single-threaded slice kernel obtained from [`Multiplier::batch_kernel`]:
/// one per worker thread, reused across a whole GEMM (`&mut self`, so a
/// kernel may keep scratch state without synchronization).
///
/// Both methods take a `class` that must [cover](RowClass::covers)
/// [`classify_row`] of every right-hand row they sweep. Kernels trust it
/// without re-scanning (debug builds assert it). A conservative (higher)
/// class is always valid and bit-identical, merely slower. Results must be
/// bit-identical to the scalar `multiply` loop, accumulated with
/// [`crate::simd::nan_stable_add`].
pub trait BatchKernel {
    /// `acc[i] += multiply(a, b[i])` for every `i` (exact accumulation, as
    /// in the paper: only the multiplier is approximate).
    ///
    /// # Panics
    ///
    /// Panics if `b` and `acc` lengths differ.
    fn axpy(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]);

    /// Output-tile GEMM: for every row `r` of the row-major weight block
    /// `w` (`[rows, K]`) and the patch tile `b` (`[K, tile]`, row-major),
    /// `acc[r·acc_stride + j] += Σ_k multiply(w[r,k], b[k·tile + j])`,
    /// accumulated with `k` ascending per element — the GEMM order, so the
    /// result equals `K` successive [`axpy`](BatchKernel::axpy) calls per
    /// row.
    ///
    /// Output rows live at stride `acc_stride ≥ tile` inside `acc` (a
    /// serving engine accumulates directly into strided conv output planes);
    /// bytes between rows are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero or does not divide `b.len()`, if `w.len()`
    /// is not a multiple of `K`, if an output row would exceed `acc`, or if
    /// `acc_stride < tile` with more than one row.
    fn gemm_tile(
        &mut self,
        w: &[f32],
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    );
}

/// The shape checks and row loop every [`BatchKernel::gemm_tile`] shares:
/// call `row(w_row, acc_row)` for each weight row in order, with `acc_row`
/// the row's `tile`-wide accumulator slice.
pub(crate) fn gemm_tile_rows(
    w: &[f32],
    b: &[f32],
    tile: usize,
    class: RowClass,
    acc: &mut [f32],
    acc_stride: usize,
    mut row: impl FnMut(&[f32], &mut [f32]),
) {
    assert!(tile > 0 && b.len().is_multiple_of(tile), "gemm_tile b length mismatch");
    debug_assert!(b.chunks(tile).all(|r| class.covers(classify_row(r))), "stale row class");
    let k = b.len() / tile;
    assert!(w.len().is_multiple_of(k), "gemm_tile w length mismatch");
    assert!(w.len() <= k || acc_stride >= tile, "gemm_tile rows overlap");
    if k == 0 {
        return;
    }
    for (r, wrow) in w.chunks_exact(k).enumerate() {
        row(wrow, &mut acc[r * acc_stride..r * acc_stride + tile]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::nan_stable_add;
    use crate::{Multiplier, MultiplierKind};
    use rand::{Rng, SeedableRng};

    #[test]
    fn default_slice_methods_match_scalar_loops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for kind in MultiplierKind::ALL {
            let m = kind.build();
            let a: Vec<f32> = (0..33).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let b: Vec<f32> = (0..33).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let mut out = vec![0.0f32; 33];
            m.multiply_slice(&a, &b, &mut out);
            for i in 0..33 {
                assert_eq!(out[i].to_bits(), m.multiply(a[i], b[i]).to_bits(), "{kind} at {i}");
            }
            let dot = m.dot_accumulate(&a, &b);
            let mut want = 0.0f32;
            for i in 0..33 {
                want += m.multiply(a[i], b[i]);
            }
            assert_eq!(dot.to_bits(), want.to_bits(), "{kind} dot");
            let mut acc = vec![0.5f32; 33];
            let mut acc_want = acc.clone();
            m.batch_kernel().axpy(0.7, &b, classify_row(&b), &mut acc);
            for (i, v) in acc_want.iter_mut().enumerate() {
                *v += m.multiply(0.7, b[i]);
            }
            assert_eq!(acc, acc_want, "{kind} axpy");
        }
    }

    #[test]
    fn bitsliced_kernel_is_bit_exact_for_gate_level_cores() {
        // HEAP has no closed-form fast path, so its kernel runs the
        // bit-sliced sweep; a repeated-operand workload must still match
        // scalar multiply exactly.
        let m = crate::heap::heap_multiplier();
        let mut kernel = m.batch_kernel();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let vals: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.5f32..1.5)).collect();
        let b: Vec<f32> = (0..256).map(|i| vals[i % 8]).collect();
        for &a in &vals {
            let mut acc = vec![0.0f32; 256];
            let mut want = vec![0.0f32; 256];
            kernel.axpy(a, &b, classify_row(&b), &mut acc);
            for (w, &x) in want.iter_mut().zip(&b) {
                *w += m.multiply(a, x);
            }
            assert_eq!(acc, want);
        }
    }

    /// `gemm_tile` must equal the scalar `multiply` loop accumulated with
    /// `k` ascending, for every kernel and every valid class cover (the
    /// tight one and `Special`), including adversarial operands and a
    /// strided output layout.
    #[test]
    fn gemm_tile_matches_scalar_multiply() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, f32::MAX];
        let (rows, k, tile, stride) = (3usize, 4usize, 9usize, 13usize);
        for name in MultiplierKind::ALL {
            let m = name.build();
            for special_rate in [0usize, 4] {
                let gen = |rng: &mut rand::rngs::StdRng, n: usize| -> Vec<f32> {
                    (0..n)
                        .map(|_i| {
                            if special_rate != 0 && rng.gen_range(0..special_rate) == 0 {
                                specials[rng.gen_range(0..specials.len())]
                            } else {
                                rng.gen_range(-2.0f32..2.0)
                            }
                        })
                        .collect()
                };
                let w = gen(&mut rng, rows * k);
                let b = gen(&mut rng, k * tile);
                let mut want = vec![0.25f32; rows * stride];
                for r in 0..rows {
                    for kk in 0..k {
                        for j in 0..tile {
                            let o = &mut want[r * stride + j];
                            *o = nan_stable_add(*o, m.multiply(w[r * k + kk], b[kk * tile + j]));
                        }
                    }
                }
                let tight = b.chunks(tile).map(classify_row).max().unwrap();
                for class in [tight, RowClass::Special] {
                    let mut acc = vec![0.25f32; rows * stride];
                    m.batch_kernel().gemm_tile(&w, &b, tile, class, &mut acc, stride);
                    for (i, (x, y)) in acc.iter().zip(&want).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{name} rate={special_rate} {class:?} at {i}: {x:?} vs {y:?}"
                        );
                    }
                }
            }
        }
    }
}
