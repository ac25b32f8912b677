//! Inner-product kernels routed through a pluggable multiplier.
//!
//! Additions stay exact — the paper approximates only the multiplier (§4.1),
//! the dominant power consumer of the convolution datapath.
//!
//! # The batched GEMM
//!
//! [`gemm_with`] is the hot path every approximate layer runs on: a blocked,
//! cache-tiled GEMM whose inner loops call the slice-level arithmetic
//! backend ([`da_arith::BatchKernel`]) instead of making one virtual call
//! per MAC. Each worker thread gets its own kernel, so per-kernel scratch
//! state is reused across the whole tile sweep without synchronization;
//! gate-level multipliers (HEAP, ablation wirings) run on the bit-sliced
//! plane sweep. The function is generic over the multiplier: instantiated
//! with [`da_arith::ExactMultiplier`] the inner loop compiles to the native
//! multiply-add loop; instantiated with `dyn Multiplier` (the layer-boundary
//! case: layers hold an `Arc<dyn Multiplier>`) dispatch happens once per
//! row-slice, not per element.
//!
//! [`matmul_with_scalar`] keeps the seed's one-virtual-call-per-MAC loop as
//! the bit-exactness reference: `gemm_with` must (and is property-tested to)
//! reproduce it to the last ULP for every [`da_arith::MultiplierKind`],
//! because both accumulate each output element over `k` in the same order.

use da_arith::{classify_row, Multiplier};
use da_tensor::parallel::par_map_chunks_with;
use da_tensor::Tensor;

/// Column-tile width of the blocked GEMM: one `f32` output tile plus the
/// matching B-row tile stay resident in L1 while `k` streams.
const TILE_COLS: usize = 256;

/// Below this many MACs the GEMM runs single-threaded with one shared
/// kernel (thread spawn costs more than it saves).
const PAR_MIN_MACS: usize = 1 << 15;

/// `A · B` where every scalar product goes through `multiplier`: the
/// blocked, cache-tiled GEMM over the slice-level arithmetic backend.
///
/// Shapes as in [`da_tensor::ops::matmul`]: `A: [m, k]`, `B: [k, n]`.
/// Monomorphizes over `M`, so concrete multiplier types get statically
/// dispatched inner loops, and a `&dyn Multiplier` dispatches once per
/// row-slice. Output rows are distributed over the scoped thread pool for
/// large products; each worker reuses one [`da_arith::BatchKernel`] across
/// all its tiles. Per output element the `k` accumulation order matches
/// [`matmul_with_scalar`], so results are bit-identical for any multiplier.
///
/// # Panics
///
/// Panics on rank or inner-dimension mismatch.
///
/// # Examples
///
/// ```
/// use da_arith::ExactMultiplier;
/// use da_nn::layers::gemm_with;
/// use da_tensor::{ops::matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::from_vec(vec![0.5, 1.0, -1.0, 2.0], &[2, 2]);
/// assert_eq!(gemm_with(&ExactMultiplier, &a, &b), matmul(&a, &b));
/// ```
pub fn gemm_with<M: Multiplier + ?Sized>(multiplier: &M, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "gemm_with lhs must be rank-2");
    assert_eq!(b.shape().len(), 2, "gemm_with rhs must be rank-2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "gemm_with inner dimensions {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    if n == 0 {
        // Zero-width result: nothing to compute (and chunking by 0 would
        // panic below).
        return Tensor::from_vec(out, &[m, n]);
    }
    let ad = a.data();
    let bd = b.data();
    let chunk = TILE_ROWS * n;

    // Classify every B tile once per GEMM (one linear pass over B): each
    // row block then hands the kernel a precomputed `RowClass` instead of
    // re-scanning the shared tile per sweep. `classify_row` is the one
    // classification every kernel accepts; classes are position-pure, so
    // this cannot change results — only skip redundant scans.
    let tiles = n.div_ceil(TILE_COLS);
    let mut classes = Vec::with_capacity(k * tiles);
    for kk in 0..k {
        for jb in (0..n).step_by(TILE_COLS) {
            let je = (jb + TILE_COLS).min(n);
            classes.push(classify_row(&bd[kk * n + jb..kk * n + je]));
        }
    }
    let classes = &classes[..];

    if m > 1 && m * k * n >= PAR_MIN_MACS {
        par_map_chunks_with(
            &mut out,
            chunk,
            || multiplier.batch_kernel(),
            |kernel, idx, opiece| {
                gemm_rows(&mut **kernel, ad, bd, classes, k, n, idx * TILE_ROWS, opiece)
            },
        );
    } else {
        let mut kernel = multiplier.batch_kernel();
        for (idx, opiece) in out.chunks_mut(chunk).enumerate() {
            gemm_rows(&mut *kernel, ad, bd, classes, k, n, idx * TILE_ROWS, opiece);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Rows handled per GEMM chunk: each B tile loaded into L1 is reused across
/// this many output rows before the `k` sweep moves on.
const TILE_ROWS: usize = 4;

/// One row block of the blocked GEMM: for each column tile, sweep `k` and
/// feed every resident output row through the kernel's
/// [`da_arith::BatchKernel::axpy`] with the tile's precomputed
/// [`da_arith::RowClass`], so closed-form kernels go straight to the
/// class-matched lane sweep while the B tile is hot. Per output element the
/// `k` order is ascending — the bit-exactness invariant.
fn gemm_rows<'k>(
    kernel: &mut (dyn da_arith::BatchKernel + 'k),
    ad: &[f32],
    bd: &[f32],
    classes: &[da_arith::RowClass],
    k: usize,
    n: usize,
    row0: usize,
    opiece: &mut [f32],
) {
    let rows = opiece.len() / n;
    let tiles = n.div_ceil(TILE_COLS);
    for (jb_idx, jb) in (0..n).step_by(TILE_COLS).enumerate() {
        let je = (jb + TILE_COLS).min(n);
        for kk in 0..k {
            let btile = &bd[kk * n + jb..kk * n + je];
            let class = classes[kk * tiles + jb_idx];
            for r in 0..rows {
                let av = ad[(row0 + r) * k + kk];
                kernel.axpy(av, btile, class, &mut opiece[r * n + jb..r * n + je]);
            }
        }
    }
}

/// The seed's per-scalar reference: one [`Multiplier::multiply`] virtual
/// call per MAC.
///
/// Kept as the semantic definition the batched [`gemm_with`] is verified
/// against (property tests) and as the baseline of the GEMM throughput
/// bench. Not used by any layer.
///
/// # Panics
///
/// Panics on rank or inner-dimension mismatch.
pub fn matmul_with_scalar(multiplier: &dyn Multiplier, a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul_with_scalar lhs must be rank-2");
    assert_eq!(b.shape().len(), 2, "matmul_with_scalar rhs must be rank-2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul_with_scalar inner dimensions {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = da_arith::simd::nan_stable_add(*o, multiplier.multiply(av, bv));
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Transpose a rank-2 tensor.
///
/// # Panics
///
/// Panics if `t` is not rank-2.
pub fn transpose2d(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().len(), 2, "transpose2d expects rank-2");
    let (m, n) = (t.shape()[0], t.shape()[1]);
    let mut out = vec![0.0f32; m * n];
    let d = t.data();
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = d[i * n + j];
        }
    }
    Tensor::from_vec(out, &[n, m])
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_arith::{ExactMultiplier, MultiplierKind};
    use da_tensor::ops::matmul;
    use rand::SeedableRng;

    #[test]
    fn exact_multiplier_reproduces_native_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 3], 1.0, &mut rng);
        let want = matmul(&a, &b);
        let got = gemm_with(&ExactMultiplier, &a, &b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn ax_fpm_matmul_inflates_positive_products() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = Tensor::rand_uniform(&[3, 5], 0.1, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[5, 2], 0.1, 1.0, &mut rng);
        let ax = MultiplierKind::AxFpm.build();
        let approx = gemm_with(&*ax, &a, &b);
        let exact = matmul(&a, &b);
        for (x, y) in approx.data().iter().zip(exact.data()) {
            assert!(x >= y, "positive accumulations must inflate: {x} vs {y}");
        }
    }

    /// The batched GEMM equals the per-scalar reference bit for bit, across
    /// every multiplier kind and a shape sweep covering ragged tiles and
    /// the parallel threshold. (The adversarial-input sweep lives in
    /// `tests/gemm_equivalence.rs`.)
    #[test]
    fn gemm_matches_scalar_reference_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for kind in MultiplierKind::ALL {
            let m = kind.build();
            for (mm, kk, nn) in [(1usize, 1usize, 1usize), (3, 7, 5), (8, 16, 13)] {
                let a = Tensor::randn(&[mm, kk], 1.0, &mut rng);
                let b = Tensor::randn(&[kk, nn], 1.0, &mut rng);
                let batched = gemm_with(&*m, &a, &b);
                let reference = matmul_with_scalar(&*m, &a, &b);
                for (i, (x, y)) in batched.data().iter().zip(reference.data()).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind} {mm}x{kk}x{nn} elem {i}");
                }
            }
        }
    }

    /// Monomorphized exact GEMM crosses the parallel threshold and still
    /// matches the native matmul bitwise on dense random data.
    #[test]
    fn monomorphized_exact_gemm_matches_ops_matmul() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Tensor::randn(&[37, 41], 1.0, &mut rng);
        let b = Tensor::randn(&[41, 29], 1.0, &mut rng);
        let got = gemm_with(&ExactMultiplier, &a, &b);
        let want = matmul(&a, &b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let t = Tensor::randn(&[3, 7], 1.0, &mut rng);
        assert_eq!(transpose2d(&transpose2d(&t)), t);
        assert_eq!(transpose2d(&t).shape(), &[7, 3]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn gemm_rejects_dimension_mismatch() {
        let _ = gemm_with(&ExactMultiplier, &Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]));
    }

    /// Regression: zero-width operands (constructible via `from_vec`) yield
    /// an empty result instead of panicking in the chunked row loop.
    #[test]
    fn gemm_handles_zero_width_rhs() {
        let a = Tensor::zeros(&[3, 4]);
        let b = Tensor::from_vec(Vec::new(), &[4, 0]);
        for kind in MultiplierKind::ALL {
            let c = gemm_with(&*kind.build(), &a, &b);
            assert_eq!(c.shape(), &[3, 0], "{kind}");
            assert!(c.data().is_empty());
        }
    }
}
