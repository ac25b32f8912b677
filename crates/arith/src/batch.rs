//! The batched arithmetic backend: slice-level kernels.
//!
//! The paper's deployment story routes every convolution/dense multiply
//! through the approximate FPM (§4.1). Simulating that one scalar at a time —
//! a virtual call per MAC into a gate-level bit-sliced multiplier — dominates
//! the runtime of every experiment. This module is the slice-level
//! counterpart: [`Multiplier`] gains `multiply_slice` / `dot_accumulate` /
//! `axpy_slice` with scalar fallbacks, and [`Multiplier::batch_kernel`] hands
//! callers a per-worker [`BatchKernel`] that may amortize work across an
//! entire GEMM (operand decomposition done once per slice, scratch buffers
//! reused across tiles; gate-level cores run on the bit-sliced plane sweep
//! of [`crate::bitslice`]).
//!
//! Contract: **every batched path is bit-identical to the scalar
//! [`Multiplier::multiply`] loop it replaces**, for all inputs including
//! NaN/Inf/denormal/negative zero. The GEMM layers above rely on this (see
//! `da_nn::layers::gemm_with` and its property tests).

use crate::fpm::Binary32Parts;
use crate::multiplier::Multiplier;
use crate::simd::RowClass;

/// One operand of a binary32 multiply with its field decomposition done
/// ahead of time.
///
/// Serving engines (see `da_nn::engine`) decompose every weight once at
/// plan-compile time and replay the cached sign/exponent/significand on every
/// request through [`BatchKernel::axpy_prepared`], instead of re-running
/// `Binary32Parts::from_f32` and the NaN classification per kernel call.
/// The cached fields are pure functions of `value`, so prepared and
/// unprepared paths are bit-identical by construction.
///
/// # Examples
///
/// ```
/// use da_arith::PreparedOperand;
///
/// let op = PreparedOperand::new(1.5);
/// assert_eq!(op.value(), 1.5);
/// assert_eq!(op.parts().exponent, 127);
/// assert!(!op.is_nan());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedOperand {
    value: f32,
    parts: Binary32Parts,
    nan: bool,
}

impl PreparedOperand {
    /// Decompose `value` into its cached fields.
    #[inline]
    pub fn new(value: f32) -> Self {
        PreparedOperand { value, parts: Binary32Parts::from_f32(value), nan: value.is_nan() }
    }

    /// The original `f32` value.
    #[inline]
    pub fn value(&self) -> f32 {
        self.value
    }

    /// The cached IEEE-754 field decomposition.
    #[inline]
    pub fn parts(&self) -> Binary32Parts {
        self.parts
    }

    /// The cached NaN classification.
    #[inline]
    pub fn is_nan(&self) -> bool {
        self.nan
    }
}

/// A row-major matrix of [`PreparedOperand`]s: the pre-decomposed weight
/// representation consumed by [`BatchKernel::axpy_prepared`].
///
/// # Examples
///
/// ```
/// use da_arith::PreparedOperands;
///
/// let w = PreparedOperands::from_matrix(&[1.0, 2.0, 3.0, 4.0], 2, 2);
/// assert_eq!(w.get(1, 0).value(), 3.0);
/// assert_eq!(w.row(0).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedOperands {
    ops: Vec<PreparedOperand>,
    rows: usize,
    cols: usize,
}

impl PreparedOperands {
    /// Decompose a row-major `[rows, cols]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_matrix(data: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        PreparedOperands {
            ops: data.iter().map(|&v| PreparedOperand::new(v)).collect(),
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The operand at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> &PreparedOperand {
        debug_assert!(row < self.rows && col < self.cols, "prepared operand index out of bounds");
        &self.ops[row * self.cols + col]
    }

    /// One row of operands.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row(&self, row: usize) -> &[PreparedOperand] {
        &self.ops[row * self.cols..(row + 1) * self.cols]
    }
}

/// A stateful, single-threaded slice kernel obtained from
/// [`Multiplier::batch_kernel`].
///
/// One kernel per worker thread: kernels may carry mutable scratch state
/// (reused row-class and operand buffers) and are deliberately `&mut self`
/// so that state needs no synchronization. Results must be bit-identical to
/// the scalar `multiply` loop regardless of kernel reuse: scratch state never
/// carries results from one call into the next.
pub trait BatchKernel {
    /// `acc[i] += multiply(a, b[i])` for every `i` (exact accumulation, as
    /// in the paper: only the multiplier is approximate).
    ///
    /// # Panics
    ///
    /// Panics if `b` and `acc` lengths differ.
    fn axpy(&mut self, a: f32, b: &[f32], acc: &mut [f32]);

    /// Fused dot product: `Σ_i multiply(a[i], b[i])`, accumulated left to
    /// right in `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` lengths differ.
    fn dot(&mut self, a: &[f32], b: &[f32]) -> f32;

    /// Elementwise products: `out[i] = multiply(a[i], b[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the three lengths differ.
    fn mul(&mut self, a: &[f32], b: &[f32], out: &mut [f32]);

    /// [`axpy`](BatchKernel::axpy) against a pre-decomposed shared operand:
    /// `acc[i] += multiply(a.value(), b[i])`, reusing the cached
    /// sign/exponent/significand instead of re-decomposing per call.
    ///
    /// Bit-identical to `axpy(a.value(), b, acc)` for every kernel; the
    /// default simply delegates. FPM kernels override it to feed the cached
    /// [`Binary32Parts`] straight into the datapath.
    ///
    /// # Panics
    ///
    /// Panics if `b` and `acc` lengths differ.
    fn axpy_prepared(&mut self, a: &PreparedOperand, b: &[f32], acc: &mut [f32]) {
        self.axpy(a.value(), b, acc);
    }

    /// [`axpy`](BatchKernel::axpy) with the right-hand row's [`RowClass`]
    /// supplied by the caller, for contexts that classify a row once and
    /// sweep it many times (a serving plan classifies each pre-transposed
    /// dense weight row at compile time; the blocked GEMM classifies each B
    /// tile once per row block).
    ///
    /// Contract: `class` must [cover](RowClass::covers) the class this
    /// kernel's own [`classify_rhs`](BatchKernel::classify_rhs) would
    /// assign to `b` — kernels may trust it without re-scanning (debug
    /// builds assert it). A conservative (higher) class is always valid
    /// and bit-identical, merely slower. Results are bit-identical to
    /// `axpy(a, b, acc)`; the default ignores the class and delegates.
    ///
    /// # Panics
    ///
    /// Panics if `b` and `acc` lengths differ.
    fn axpy_classified(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]) {
        let _ = class;
        self.axpy(a, b, acc);
    }

    /// Sweep one shared right-hand row with several scalar operands:
    /// `acc[r·acc_stride + i] += multiply(a[r], b[i])` for every row `r`,
    /// rows ascending — exactly `a.len()` successive
    /// [`axpy`](BatchKernel::axpy) calls, which is what the default does.
    ///
    /// FPM kernels override this to classify `b` once and run every row's
    /// class-matched lane sweep (see `crate::simd`), amortizing the
    /// classification scan the per-call `axpy` would repeat.
    ///
    /// # Panics
    ///
    /// Panics if an output row would exceed `acc`, or if
    /// `acc_stride < b.len()` with more than one row.
    fn axpy_rows(&mut self, a: &[f32], b: &[f32], acc: &mut [f32], acc_stride: usize) {
        assert!(a.len() <= 1 || acc_stride >= b.len(), "axpy_rows rows overlap");
        for (r, &av) in a.iter().enumerate() {
            self.axpy(av, b, &mut acc[r * acc_stride..r * acc_stride + b.len()]);
        }
    }

    /// Fused output-tile GEMM against pre-decomposed weights: for every
    /// output row `r` of `ops` (`[rows, K]`) and patch tile `b`
    /// (`[K, tile]`, row-major),
    /// `acc[r·acc_stride + j] += Σ_k multiply(ops[r,k], b[k·tile + j])`,
    /// accumulated with `k` ascending per element — the GEMM order.
    ///
    /// Output rows live at stride `acc_stride ≥ tile` inside `acc` (a
    /// serving engine accumulates directly into strided conv output planes);
    /// bytes between rows are untouched.
    ///
    /// Bit-identical to row-by-row
    /// [`axpy_prepared`](BatchKernel::axpy_prepared) calls — the default
    /// does exactly that.
    /// Overrides may amortize right-hand-side classification and field
    /// extraction across all `rows` sweeps of the shared tile (see the FPM
    /// kernel's AMA5 fast path).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != ops.cols() · tile`, if an output row would
    /// exceed `acc`, or if `acc_stride < tile` with more than one row.
    fn gemm_tile(
        &mut self,
        ops: &PreparedOperands,
        b: &[f32],
        tile: usize,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        assert_eq!(b.len(), ops.cols() * tile, "gemm_tile b length mismatch");
        assert!(ops.rows() <= 1 || acc_stride >= tile, "gemm_tile rows overlap");
        for r in 0..ops.rows() {
            let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
            for (k, op) in ops.row(r).iter().enumerate() {
                self.axpy_prepared(op, &b[k * tile..(k + 1) * tile], acc_row);
            }
        }
    }

    /// [`gemm_tile`](BatchKernel::gemm_tile) with one caller-supplied class
    /// [covering](RowClass::covers) **every** row of `b`, instead of the
    /// kernel scanning each row itself. Serving engines derive one class
    /// per convolution from the input plane (plus `Zeros` when padding can
    /// inject them), which removes all per-tile classification scans from
    /// the hot path; a conservative cover is bit-identical to precise
    /// classification by the [`RowClass::covers`] contract.
    ///
    /// # Panics
    ///
    /// Panics as [`gemm_tile`](BatchKernel::gemm_tile) does.
    fn gemm_tile_classed(
        &mut self,
        ops: &PreparedOperands,
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        assert_eq!(b.len(), ops.cols() * tile, "gemm_tile b length mismatch");
        assert!(ops.rows() <= 1 || acc_stride >= tile, "gemm_tile rows overlap");
        for r in 0..ops.rows() {
            let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
            for (k, op) in ops.row(r).iter().enumerate() {
                self.axpy_classified(op.value(), &b[k * tile..(k + 1) * tile], class, acc_row);
            }
        }
    }

    /// Classify one right-hand row the way this kernel's class-matched
    /// sweeps need it. Defaults to the full three-way
    /// [`crate::simd::classify_row`]; kernels whose fast sweeps treat zeros
    /// like any normal value (native exact, Bfloat16) override it with the
    /// cheaper special-only scan, which reports `Normal` for zero-bearing
    /// rows. Callers that classify on a kernel's behalf (the blocked GEMM)
    /// must use this method, not `classify_row`, so the class always means
    /// what the kernel expects.
    fn classify_rhs(&self, b: &[f32]) -> RowClass {
        crate::simd::classify_row(b)
    }
}

/// The default [`BatchKernel`]: stateless delegation to the multiplier's
/// slice methods (which themselves default to scalar loops).
///
/// Generic over the concrete multiplier so that a monomorphized GEMM calling
/// through this kernel statically dispatches the inner loop — for
/// [`crate::ExactMultiplier`] the `axpy` body compiles to the native
/// multiply-add loop.
pub struct FallbackKernel<'a, M: Multiplier + ?Sized> {
    multiplier: &'a M,
}

impl<'a, M: Multiplier + ?Sized> FallbackKernel<'a, M> {
    /// Wrap a multiplier.
    pub fn new(multiplier: &'a M) -> Self {
        FallbackKernel { multiplier }
    }
}

impl<M: Multiplier + ?Sized> BatchKernel for FallbackKernel<'_, M> {
    fn axpy(&mut self, a: f32, b: &[f32], acc: &mut [f32]) {
        self.multiplier.axpy_slice(a, b, acc);
    }

    fn dot(&mut self, a: &[f32], b: &[f32]) -> f32 {
        self.multiplier.dot_accumulate(a, b)
    }

    fn mul(&mut self, a: &[f32], b: &[f32], out: &mut [f32]) {
        self.multiplier.multiply_slice(a, b, out);
    }
}

/// Shared skeleton for classified tile GEMMs over value-type multipliers
/// (native exact, Bfloat16): classify each of the tile's `K` rows **once**,
/// then sweep every output row with the kernel's class-aware axpy. The FPM
/// kernel has its own variant (it consumes pre-decomposed operand fields and
/// runs gate-level cores on the bit-sliced sweep).
pub(crate) fn gemm_tile_classified(
    ops: &PreparedOperands,
    b: &[f32],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    row_class: &mut Vec<RowClass>,
    classify: impl Fn(&[f32]) -> RowClass,
    mut axpy: impl FnMut(f32, &[f32], RowClass, &mut [f32]),
) {
    let k_rows = ops.cols();
    assert_eq!(b.len(), k_rows * tile, "gemm_tile b length mismatch");
    assert!(ops.rows() <= 1 || acc_stride >= tile, "gemm_tile rows overlap");
    row_class.clear();
    for k in 0..k_rows {
        row_class.push(classify(&b[k * tile..(k + 1) * tile]));
    }
    for r in 0..ops.rows() {
        let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
        for (k, op) in ops.row(r).iter().enumerate() {
            axpy(op.value(), &b[k * tile..(k + 1) * tile], row_class[k], acc_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactMultiplier, Multiplier, MultiplierKind};
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
            m.axpy_slice(0.7, &b, &mut acc);
            for (i, v) in acc_want.iter_mut().enumerate() {
                *v += m.multiply(0.7, b[i]);
            }
            assert_eq!(acc, acc_want, "{kind} axpy");
        }
    }

    #[test]
    fn fallback_kernel_delegates() {
        let m = ExactMultiplier;
        let mut kernel = FallbackKernel::new(&m);
        let mut acc = [1.0f32, 2.0];
        kernel.axpy(2.0, &[3.0, 4.0], &mut acc);
        assert_eq!(acc, [7.0, 10.0]);
        assert_eq!(kernel.dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let mut out = [0.0f32; 2];
        kernel.mul(&[2.0, 3.0], &[5.0, 7.0], &mut out);
        assert_eq!(out, [10.0, 21.0]);
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
            kernel.axpy(a, &b, &mut acc);
            for (w, &x) in want.iter_mut().zip(&b) {
                *w += m.multiply(a, x);
            }
            assert_eq!(acc, want);
        }
    }

    #[test]
    fn prepared_operand_caches_the_decomposition() {
        for v in [0.0f32, -0.0, 1.5, -3.25, f32::NAN, f32::INFINITY, f32::MIN_POSITIVE, 1e-40] {
            let op = PreparedOperand::new(v);
            assert_eq!(op.value().to_bits(), v.to_bits());
            assert_eq!(op.parts(), Binary32Parts::from_f32(v));
            assert_eq!(op.is_nan(), v.is_nan());
        }
    }

    #[test]
    fn prepared_matrix_indexing_is_row_major() {
        let w = PreparedOperands::from_matrix(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!((w.rows(), w.cols()), (2, 3));
        assert_eq!(w.get(0, 2).value(), 3.0);
        assert_eq!(w.get(1, 1).value(), 5.0);
        assert_eq!(w.row(1).iter().map(|o| o.value()).collect::<Vec<_>>(), [4.0, 5.0, 6.0]);
    }

    /// `gemm_tile` must be bit-identical to row-by-row `axpy_prepared` for
    /// every kernel (the AMA5 override amortizes tile classification and
    /// must not change a single bit), including adversarial operands and a
    /// strided output layout.
    #[test]
    fn gemm_tile_matches_rowwise_axpy_prepared() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let specials = [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, f32::MAX];
        let (rows, k, tile, stride) = (3usize, 4usize, 9usize, 13usize);
        for kind in MultiplierKind::ALL {
            let m = kind.build();
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
                let ops = PreparedOperands::from_matrix(&w, rows, k);
                let mut acc_tile = vec![0.25f32; rows * stride];
                let mut acc_ref = acc_tile.clone();
                m.batch_kernel().gemm_tile(&ops, &b, tile, &mut acc_tile, stride);
                {
                    let mut kern = m.batch_kernel();
                    for r in 0..rows {
                        let acc_row = &mut acc_ref[r * stride..r * stride + tile];
                        for kk in 0..k {
                            kern.axpy_prepared(
                                ops.get(r, kk),
                                &b[kk * tile..(kk + 1) * tile],
                                acc_row,
                            );
                        }
                    }
                }
                for (i, (x, y)) in acc_tile.iter().zip(&acc_ref).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{kind} rate={special_rate} at {i}: {x:?} vs {y:?}"
                    );
                }
            }
        }
    }

    /// `axpy_prepared` must be bit-identical to `axpy` for every kernel and
    /// every operand class (normal, zero, denormal, NaN, Inf).
    #[test]
    fn prepared_axpy_matches_unprepared_for_all_kinds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let specials =
            [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, f32::MAX, 0.7];
        let mut b: Vec<f32> = (0..64).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        b.extend_from_slice(&specials);
        for kind in MultiplierKind::ALL {
            let m = kind.build();
            for &a in specials.iter().chain(&[0.37f32, -1.25]) {
                let op = PreparedOperand::new(a);
                let mut acc_prepared = vec![0.5f32; b.len()];
                let mut acc_plain = acc_prepared.clone();
                m.batch_kernel().axpy_prepared(&op, &b, &mut acc_prepared);
                m.batch_kernel().axpy(a, &b, &mut acc_plain);
                for (i, (x, y)) in acc_prepared.iter().zip(&acc_plain).enumerate() {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind} a={a} at {i}: {x:?} vs {y:?}");
                }
            }
        }
    }
}
