//! Int8 quantized arithmetic: affine quantizers, per-multiplier product
//! tables, and LUT-gather GEMM kernels.
//!
//! Once operands are 8-bit codes, any [`Multiplier`] — gate-level HEAP and
//! ablation wirings just like the closed-form AMA5/exact/Bfloat16 cores —
//! has only `256 × 256` possible products. A [`ProductLut`] therefore
//! evaluates the *actual* scalar multiplier once per code pair at build time
//! and the entire GEMM hot path collapses into a table gather: no per-element
//! field decomposition, no row classification, no clamp selects, and no
//! gate-level simulation at serving time. The LUT is **exact with respect to
//! the hardware model it replaces by construction**: entry `(qa, qb)` is
//! bit-identical to `m.multiply(a.dequantize(qa), b.dequantize(qb))`
//! (exhaustively asserted for every [`crate::MultiplierKind`] in
//! `tests/quantized_conformance.rs`).
//!
//! # Quantization contract
//!
//! * **Affine, per-tensor, `u8` codes.** A [`QuantParams`] is a positive
//!   `scale` and a `zero_point` code: `dequantize(q) = scale · (q − zero_point)`
//!   and `quantize(x) = round(x / scale) + zero_point` saturated to
//!   `0..=255`. The zero point is always a valid code, so the real value
//!   `0.0` is exactly representable — convolution padding and ReLU cut-offs
//!   quantize without error.
//! * **Calibration from observed ranges.** [`QuantParams::from_range`] takes
//!   the `[lo, hi]` interval a tensor was observed to occupy (serving plans
//!   record it on a calibration batch, see `da_nn::engine`), widens it to
//!   contain zero, and spreads the 256 codes uniformly across it. Degenerate
//!   ranges fall back to unit scale.
//! * **`f32` table entries and `f32` accumulation.** The classic int8 GEMM
//!   accumulates `i32` products, but re-quantizing the *approximate
//!   multiplier's* products onto an integer grid would add a second error
//!   source and break bit-faithfulness to the gate-level datapath. This
//!   crate's contract everywhere is "only the multiplier is approximate;
//!   additions stay exact `f32`" — the LUT keeps it: entries are the
//!   multiplier's own `f32` products, and [`lut_gemm`] accumulates them with
//!   exact `f32` adds, `k` ascending per output element (the batched GEMM's
//!   order).
//!
//! # When the LUT beats the SIMD lane kernels
//!
//! The [`crate::simd`] lane kernels are the fastest *full-precision* path:
//! they need the real 24-bit significands. The LUT wins whenever operands
//! are 8-bit codes, for two different reasons:
//!
//! * **Closed-form cores** (AMA5, exact, Bfloat16): the gather replaces the
//!   whole decompose → exponent-add → clamp-select pipeline with one indexed
//!   load per MAC — ~1.5× the lane kernels' GEMM throughput and ~3× the
//!   serving-engine throughput, where the f32 path also pays per-plane
//!   classification and f32 patch gathers.
//! * **Gate-level cores** (HEAP, ablation wirings): these have *no* lane
//!   kernels — every product simulates an array multiplier (64 or 8×64 at
//!   a time on the [`crate::bitslice`] plane sweep). The LUT runs them at
//!   exactly the same gather speed as the closed-form cores, while staying
//!   bit-faithful to the gates.
//!
//! The gather kernels are runtime-dispatched (AVX-512 → AVX2 → portable
//! scalar). Unlike the lane kernels there is no autovectorizable
//! formulation of a table gather, so the hand-written bodies are always
//! compiled in on x86-64; every dispatch path is bit-identical (same table
//! entries, same per-element add order — property-tested in
//! `tests/quantized_conformance.rs`).
//!
//! # Example
//!
//! ```
//! use da_arith::quantized::{lut_gemm, ProductLut, QuantParams};
//! use da_arith::MultiplierKind;
//!
//! let m = MultiplierKind::AxFpm.build();
//! let w = QuantParams::from_range(-1.0, 1.0);
//! let x = QuantParams::from_range(0.0, 4.0);
//! let lut = ProductLut::build(&*m, w, x);
//! // Entry (qa, qb) is the scalar multiplier's product, bit for bit.
//! let (qa, qb) = (w.quantize(0.5), x.quantize(2.0));
//! assert_eq!(
//!     lut.product(qa, qb).to_bits(),
//!     m.multiply(w.dequantize(qa), x.dequantize(qb)).to_bits(),
//! );
//! // A 1x1 "GEMM" over codes gathers the same product.
//! let mut acc = [0.0f32];
//! lut_gemm(&lut, &[qa], 1, 1, &[qb], 1, &mut acc, 1);
//! assert_eq!(acc[0].to_bits(), lut.product(qa, qb).to_bits());
//! ```

use crate::multiplier::Multiplier;
use crate::storage::Storage;
use da_tensor::parallel::par_map_chunks;

/// Codes per operand side (8-bit quantization).
pub const CODES: usize = 256;

/// Codes per int4 operand side (weight-only 4-bit quantization).
pub const CODES4: usize = 16;

/// An affine per-tensor quantizer: `value = scale · (code − zero_point)`.
///
/// `scale` is always positive and finite, and `zero_point` is itself a code,
/// so `dequantize` is strictly increasing and maps `zero_point` to exactly
/// `0.0` (monotonicity is what lets max-pooling and ReLU run directly on
/// codes in `da_nn::engine`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
    /// `1 / scale`, precomputed: the quantize loops run on every serving
    /// request (input quantization, inter-layer requantization) and a
    /// multiply keeps them autovectorizable where a divide would not be.
    inv_scale: f32,
    zero_point: u8,
}

impl QuantParams {
    /// A quantizer spanning the observed value range `[lo, hi]`.
    ///
    /// The range is widened to include `0.0` (so the zero code exists), then
    /// the 256 codes are spread uniformly across it. Degenerate or
    /// non-finite ranges (empty tensors, all-constant tensors) fall back to
    /// unit scale around zero.
    pub fn from_range(lo: f32, hi: f32) -> QuantParams {
        let lo = if lo.is_finite() { lo.min(0.0) } else { 0.0 };
        let hi = if hi.is_finite() { hi.max(0.0) } else { 0.0 };
        let scale = (hi - lo) / (CODES - 1) as f32;
        if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !scale.is_finite()
            || !(1.0 / scale).is_finite()
        {
            return QuantParams { scale: 1.0, inv_scale: 1.0, zero_point: 0 };
        }
        // Nudge the zero point onto the code grid; rounding keeps it within
        // 0..=255 because lo <= 0 <= hi.
        let zero_point = (-lo / scale).round().clamp(0.0, 255.0) as u8;
        QuantParams { scale, inv_scale: 1.0 / scale, zero_point }
    }

    /// Reassemble a quantizer from its serialized `(scale, zero_point)`
    /// pair — the snapshot-load path. `inv_scale` is recomputed as
    /// `1.0 / scale`, exactly as [`QuantParams::from_range`] does, so the
    /// round trip is bit-identical. Returns `None` for a scale no valid
    /// quantizer can carry (non-positive, non-finite, or with a non-finite
    /// reciprocal), turning hostile snapshot bytes into a typed error
    /// instead of NaN arithmetic downstream.
    pub fn from_parts(scale: f32, zero_point: u8) -> Option<QuantParams> {
        if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !scale.is_finite()
            || !(1.0 / scale).is_finite()
        {
            return None;
        }
        Some(QuantParams { scale, inv_scale: 1.0 / scale, zero_point })
    }

    /// The positive step between adjacent codes.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The code representing exactly `0.0`.
    pub fn zero_point(&self) -> u8 {
        self.zero_point
    }

    /// The real value of `code` (exact: one `f32` multiply of exact ints).
    #[inline]
    pub fn dequantize(&self, code: u8) -> f32 {
        self.scale * (code as i32 - self.zero_point as i32) as f32
    }

    /// The nearest code for `x` (ties to even), saturating outside the
    /// calibrated range. NaN maps to the zero point (the only sane code for
    /// "no value").
    #[inline]
    pub fn quantize(&self, x: f32) -> u8 {
        // This runs on every serving request (input quantization and every
        // inter-layer requantize), so it must autovectorize on the SSE2
        // baseline: `f32::round` is a libm call there and Rust's saturating
        // float→int casts scalarize, so round via the 2²³ magic-number
        // trick instead — saturate in f32 with max/min, push the value into
        // the mantissa range where the float grid *is* the integers (one
        // RNE add), and read the code out of the low mantissa bits. Every
        // step is a plain vector op (mul/add/max/min/select/bitcast).
        let v = x * self.inv_scale + self.zero_point as f32;
        let v = if x.is_nan() { self.zero_point as f32 } else { v };
        let magic = (1u32 << 23) as f32;
        let f = v.clamp(0.0, 255.0) + magic;
        (f.to_bits() & 0xFF) as u8
    }

    /// Quantize a slice (`out[i] = quantize(xs[i])`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn quantize_slice(&self, xs: &[f32], out: &mut [u8]) {
        assert_eq!(xs.len(), out.len(), "quantize_slice length mismatch");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.quantize(x);
        }
    }

    /// Dequantize a slice (`out[i] = dequantize(codes[i])`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dequantize_slice(&self, codes: &[u8], out: &mut [f32]) {
        assert_eq!(codes.len(), out.len(), "dequantize_slice length mismatch");
        for (o, &q) in out.iter_mut().zip(codes) {
            *o = self.dequantize(q);
        }
    }

    /// The `(min, max)` of a value stream, ignoring NaNs. Returns `(0, 0)`
    /// for an empty (or all-NaN) stream, which [`QuantParams::from_range`]
    /// maps to the unit fallback quantizer.
    pub fn observe(xs: &[f32]) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &x in xs {
            if x.is_nan() {
                continue;
            }
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }
}

/// An affine per-tensor **int4** quantizer: 16 codes spread across the
/// observed range, zero always exactly representable — the weight-side
/// companion of [`QuantParams`] for [`ProductLut4`] plans. Codes live in the
/// low nibble of a `u8` (`0..=15`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams4 {
    scale: f32,
    inv_scale: f32,
    zero_point: u8,
}

impl QuantParams4 {
    /// A 16-code quantizer spanning `[lo, hi]`, widened to include `0.0`;
    /// degenerate or non-finite ranges fall back to unit scale (see
    /// [`QuantParams::from_range`]).
    pub fn from_range(lo: f32, hi: f32) -> QuantParams4 {
        let lo = if lo.is_finite() { lo.min(0.0) } else { 0.0 };
        let hi = if hi.is_finite() { hi.max(0.0) } else { 0.0 };
        let scale = (hi - lo) / (CODES4 - 1) as f32;
        if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !scale.is_finite()
            || !(1.0 / scale).is_finite()
        {
            return QuantParams4 { scale: 1.0, inv_scale: 1.0, zero_point: 0 };
        }
        let zero_point = (-lo / scale).round().clamp(0.0, 15.0) as u8;
        QuantParams4 { scale, inv_scale: 1.0 / scale, zero_point }
    }

    /// Reassemble a quantizer from its serialized `(scale, zero_point)`
    /// pair (see [`QuantParams::from_parts`]). Additionally rejects zero
    /// points outside the 16-code grid.
    pub fn from_parts(scale: f32, zero_point: u8) -> Option<QuantParams4> {
        if zero_point >= CODES4 as u8
            || scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            || !scale.is_finite()
            || !(1.0 / scale).is_finite()
        {
            return None;
        }
        Some(QuantParams4 { scale, inv_scale: 1.0 / scale, zero_point })
    }

    /// The positive step between adjacent codes.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The code representing exactly `0.0`.
    pub fn zero_point(&self) -> u8 {
        self.zero_point
    }

    /// The real value of `code` (taken modulo 16, like every int4 kernel).
    #[inline]
    pub fn dequantize(&self, code: u8) -> f32 {
        self.scale * ((code & 0xF) as i32 - self.zero_point as i32) as f32
    }

    /// The nearest code for `x` (ties to even), saturating to `0..=15`;
    /// NaN maps to the zero point. Same branch-free magic-number rounding
    /// as [`QuantParams::quantize`].
    #[inline]
    pub fn quantize(&self, x: f32) -> u8 {
        let v = x * self.inv_scale + self.zero_point as f32;
        let v = if x.is_nan() { self.zero_point as f32 } else { v };
        let magic = (1u32 << 23) as f32;
        let f = v.clamp(0.0, 15.0) + magic;
        (f.to_bits() & 0xF) as u8
    }

    /// Quantize a slice (`out[i] = quantize(xs[i])`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn quantize_slice(&self, xs: &[f32], out: &mut [u8]) {
        assert_eq!(xs.len(), out.len(), "quantize_slice length mismatch");
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = self.quantize(x);
        }
    }

    /// Dequantize a slice (`out[i] = dequantize(codes[i])`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dequantize_slice(&self, codes: &[u8], out: &mut [f32]) {
        assert_eq!(codes.len(), out.len(), "dequantize_slice length mismatch");
        for (o, &q) in out.iter_mut().zip(codes) {
            *o = self.dequantize(q);
        }
    }
}

/// The full 256×256 product table of one [`Multiplier`] over a pair of
/// quantizers: `table[(qa << 8) | qb] = m.multiply(a.dequantize(qa),
/// b.dequantize(qb))` — 64 Ki entries, 256 KiB.
///
/// The `a` side is the GEMM's left operand (weights in a convolution,
/// activations in this crate's dense reference — operand order matters
/// because approximate multipliers need not be commutative) and the `b` side
/// the right operand. Building a table costs 65 536 scalar `multiply` calls:
/// microseconds for closed-form cores, tens of milliseconds for gate-level
/// HEAP — paid once at plan-compile time, never at serving time.
#[derive(Clone)]
pub struct ProductLut {
    table: Storage<f32>,
    a: QuantParams,
    b: QuantParams,
    /// Whether every entry of the `a` zero-point row is exactly `±0.0` —
    /// true for every multiplier in the tree (`multiply(0.0, y)` is a
    /// signed zero). Lets [`lut_gemm`]'s single-row sweeps skip zero-point
    /// shared operands: adding `±0.0` is a bitwise no-op on any
    /// accumulator other than `-0.0`, and an accumulator chain seeded
    /// without `-0.0` can never produce one (IEEE round-to-nearest yields
    /// `-0.0` only from `-0.0 + -0.0`).
    zero_a_row: bool,
}

impl ProductLut {
    /// Evaluate `m` over every code pair.
    ///
    /// Rows are built in parallel (one chunk per `qa` row): every entry is
    /// an independent scalar `multiply` call, so the table is bit-identical
    /// to the sequential build regardless of thread count — gate-level
    /// wirings pay 65 536 full gate evaluations here, the dominant
    /// plan-compile cost.
    pub fn build(m: &dyn Multiplier, a: QuantParams, b: QuantParams) -> ProductLut {
        let mut table = vec![0.0f32; CODES * CODES];
        par_map_chunks(&mut table, CODES, |qa, row| {
            let av = a.dequantize(qa as u8);
            for (qb, slot) in row.iter_mut().enumerate() {
                *slot = m.multiply(av, b.dequantize(qb as u8));
            }
        });
        ProductLut::from_parts(Storage::Owned(table), a, b)
    }

    /// Reassemble a table from storage (owned or borrowed from a snapshot
    /// mapping) and its quantizer pair, without touching a multiplier. The
    /// zero-point-row skip flag is rederived by scanning the actual row, so
    /// it is always consistent with the entries — including entries a
    /// hostile snapshot may have altered.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not hold exactly `CODES * CODES` entries
    /// (snapshot loaders validate section lengths before constructing
    /// storage, so this indicates a caller bug, not bad input data).
    pub fn from_parts(table: Storage<f32>, a: QuantParams, b: QuantParams) -> ProductLut {
        assert_eq!(table.len(), CODES * CODES, "ProductLut table must be 256x256");
        let zp = a.zero_point() as usize;
        let zero_a_row = table.as_slice()[zp << 8..(zp << 8) + CODES].iter().all(|v| *v == 0.0);
        ProductLut { table, a, b, zero_a_row }
    }

    /// The product for code pair `(qa, qb)` — bit-identical to
    /// `multiply(a.dequantize(qa), b.dequantize(qb))` on the multiplier the
    /// table was built from.
    #[inline]
    pub fn product(&self, qa: u8, qb: u8) -> f32 {
        self.table.as_slice()[((qa as usize) << 8) | qb as usize]
    }

    /// The left-operand quantizer.
    pub fn a_params(&self) -> QuantParams {
        self.a
    }

    /// The right-operand quantizer.
    pub fn b_params(&self) -> QuantParams {
        self.b
    }

    /// The raw table (`[(qa << 8) | qb]` layout), for kernels.
    #[inline]
    pub fn table(&self) -> &[f32] {
        self.table.as_slice()
    }

    /// Whether the table entries borrow a mapped snapshot (vs heap-owned).
    pub fn is_mapped(&self) -> bool {
        self.table.is_mapped()
    }
}

impl std::fmt::Debug for ProductLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProductLut")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("entries", &self.table.len())
            .finish()
    }
}

/// Validate the shared `lut_gemm` preconditions.
#[inline]
fn check_gemm(
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &[f32],
    acc_stride: usize,
) {
    assert_eq!(qa.len(), rows * k, "lut_gemm qa length mismatch");
    assert_eq!(b.len(), k * tile, "lut_gemm b length mismatch");
    assert!(rows <= 1 || acc_stride >= tile, "lut_gemm rows overlap");
    if rows > 0 {
        assert!(
            (rows - 1) * acc_stride + tile <= acc.len(),
            "lut_gemm acc too small for {rows} rows of {tile} at stride {acc_stride}"
        );
    }
    // The zero-point skip (see `ProductLut::zero_a_row`) is a bitwise no-op
    // for every accumulator value except -0.0, which no accumulation chain
    // can produce — but a caller could seed one. Reject it loudly in debug,
    // checking only the row spans actually accumulated (gap bytes between
    // strided rows are documented untouched and may hold anything).
    debug_assert!(
        (0..rows).all(|r| {
            acc[r * acc_stride..r * acc_stride + tile]
                .iter()
                .all(|v| v.to_bits() != (-0.0f32).to_bits())
        }),
        "lut_gemm accumulators must not be seeded with -0.0"
    );
}

/// LUT-gather GEMM over code matrices:
/// `acc[r·acc_stride + j] += lut[qa[r·k + kk]][b[kk·tile + j]]` for every
/// output row `r < rows` and column `j < tile`, accumulated with `kk`
/// ascending per element — the batched GEMM's order, so results are
/// bit-identical to [`lut_gemm_reference`] (and therefore to the scalar
/// multiplier over dequantized codes).
///
/// Output rows live at stride `acc_stride ≥ tile` inside `acc` (serving
/// engines accumulate straight into strided conv output planes); bytes
/// between rows are untouched. Dense layers are the `rows == 1` case with
/// activations as `qa` and the pre-transposed weight codes as `b`.
///
/// Dispatches at runtime to AVX-512 / AVX2 hardware gathers when available,
/// falling back to [`lut_gemm_scalar`]; every path is bit-identical.
///
/// Single-row sweeps (dense layers) additionally **skip** shared-operand
/// codes at the `a` zero point when that LUT row is exactly `±0.0` (it is
/// for every multiplier in the tree) — post-ReLU activations hit the zero
/// code constantly, so this drops a large fraction of dense MACs. The skip
/// is bitwise neutral: adding `±0.0` never changes an accumulator other
/// than `-0.0`, no accumulation chain can produce `-0.0` under
/// round-to-nearest, and `-0.0` *seeds* are rejected in debug builds.
///
/// # Panics
///
/// Panics if `qa.len() != rows·k`, `b.len() != k·tile`, `acc` cannot hold
/// the strided output rows, or `acc_stride < tile` with more than one row.
pub fn lut_gemm(
    lut: &ProductLut,
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, b, tile, acc, acc_stride);
    let skip = if lut.zero_a_row { Some(lut.a.zero_point()) } else { None };
    #[cfg(target_arch = "x86_64")]
    {
        match gather_level() {
            GatherLevel::Avx512 => {
                // SAFETY: preconditions checked above; the kernel requires
                // avx512f, which `gather_level` just probed.
                unsafe {
                    gemm_avx512(lut.table.as_slice(), qa, rows, k, b, tile, acc, acc_stride, skip)
                }
                return;
            }
            GatherLevel::Avx2 => {
                // SAFETY: as above, for avx2.
                unsafe {
                    gemm_avx2(lut.table.as_slice(), qa, rows, k, b, tile, acc, acc_stride, skip)
                }
                return;
            }
            GatherLevel::Scalar => {}
        }
    }
    gemm_scalar(lut.table.as_slice(), qa, rows, k, b, tile, acc, acc_stride, skip);
}

/// The portable scalar body of [`lut_gemm`] (also its non-x86 and
/// pre-AVX2 fallback), exposed so conformance tests can pin every dispatch
/// path against the same reference.
///
/// # Panics
///
/// Panics as [`lut_gemm`] does.
pub fn lut_gemm_scalar(
    lut: &ProductLut,
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, b, tile, acc, acc_stride);
    let skip = if lut.zero_a_row { Some(lut.a.zero_point()) } else { None };
    gemm_scalar(lut.table.as_slice(), qa, rows, k, b, tile, acc, acc_stride, skip);
}

/// The semantic ground truth [`lut_gemm`] is tested against: the same loop
/// with every product computed by the scalar multiplier on dequantized
/// codes instead of gathered from the table.
///
/// # Panics
///
/// Panics as [`lut_gemm`] does.
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_reference(
    m: &dyn Multiplier,
    a_params: QuantParams,
    b_params: QuantParams,
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, b, tile, acc, acc_stride);
    for r in 0..rows {
        let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
        for kk in 0..k {
            let av = a_params.dequantize(qa[r * k + kk]);
            let brow = &b[kk * tile..(kk + 1) * tile];
            for (o, &qb) in acc_row.iter_mut().zip(brow) {
                *o += m.multiply(av, b_params.dequantize(qb));
            }
        }
    }
}

/// Fused epilogue of a quantized conv/dense row: `act(acc[i] + bias)`
/// requantized into `out` codes (`act` is ReLU when `relu` is set).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn requantize_bias_act(
    acc: &[f32],
    bias: f32,
    relu: bool,
    params: &QuantParams,
    out: &mut [u8],
) {
    assert_eq!(acc.len(), out.len(), "requantize length mismatch");
    for (o, &v) in out.iter_mut().zip(acc) {
        let v = v + bias;
        let v = if relu { v.max(0.0) } else { v };
        *o = params.quantize(v);
    }
}

// ---------------------------------------------------------------------------
// Kernel bodies.
//
// Every body computes, per output element, the identical ascending-k sequence
// of f32 adds over identical table entries; blocking and lane width only
// change how *independent* elements interleave, so all bodies are
// bit-identical (property-tested in tests/quantized_conformance.rs).
// Gather indices are structurally in bounds: `(qa << 8) | qb <= 0xFFFF` and
// the table always holds 65 536 entries.
// ---------------------------------------------------------------------------

/// Scalar kernel: 4 output rows × 4 k-steps register-blocked, so each
/// accumulator round-trips memory once per four products and the four
/// gather streams overlap in the load pipeline. Single-row sweeps honor
/// `skip` (see [`next_k_block`]).
#[allow(clippy::too_many_arguments)]
fn gemm_scalar(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    let mut r = 0;
    while r + 4 <= rows {
        let mut kk = 0;
        while kk + 4 <= k {
            let mut base = [[0usize; 4]; 4];
            for (c, row_base) in base.iter_mut().enumerate() {
                for (i, slot) in row_base.iter_mut().enumerate() {
                    *slot = (qa[(r + c) * k + kk + i] as usize) << 8;
                }
            }
            for j in 0..tile {
                let q = [
                    b[kk * tile + j] as usize,
                    b[(kk + 1) * tile + j] as usize,
                    b[(kk + 2) * tile + j] as usize,
                    b[(kk + 3) * tile + j] as usize,
                ];
                for (c, row_base) in base.iter().enumerate() {
                    let slot = (r + c) * acc_stride + j;
                    let mut a = acc[slot];
                    a += table[row_base[0] + q[0]];
                    a += table[row_base[1] + q[1]];
                    a += table[row_base[2] + q[2]];
                    a += table[row_base[3] + q[3]];
                    acc[slot] = a;
                }
            }
            kk += 4;
        }
        for c in 0..4 {
            scalar_row_tail(table, qa, r + c, k, kk, b, tile, acc, acc_stride);
        }
        r += 4;
    }
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt == 4 {
                let base = [
                    (qa_row[ks[0]] as usize) << 8,
                    (qa_row[ks[1]] as usize) << 8,
                    (qa_row[ks[2]] as usize) << 8,
                    (qa_row[ks[3]] as usize) << 8,
                ];
                let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                for (j, o) in arow.iter_mut().enumerate() {
                    let mut a = *o;
                    a += table[base[0] + b[ks[0] * tile + j] as usize];
                    a += table[base[1] + b[ks[1] * tile + j] as usize];
                    a += table[base[2] + b[ks[2] * tile + j] as usize];
                    a += table[base[3] + b[ks[3] * tile + j] as usize];
                    *o = a;
                }
            } else {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 8;
                    let row = &table[base..base + CODES];
                    let brow = &b[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(brow) {
                        *o += row[q as usize];
                    }
                }
                break;
            }
        }
        r += 1;
    }
}

/// Collect up to four not-skipped `k` indices starting at `*kk` (advancing
/// it); returns how many were found. The zero-point skip is bit-exact: the
/// skipped products are exact `±0.0` (guaranteed by the caller via
/// [`ProductLut::build`]'s zero-row scan), and adding `±0.0` never changes
/// an accumulator that is not `-0.0` — which no chain produces and
/// [`check_gemm`] rejects as a seed in debug builds.
#[inline]
fn next_k_block(qa_row: &[u8], skip: Option<u8>, kk: &mut usize, out: &mut [usize; 4]) -> usize {
    let mut cnt = 0usize;
    while *kk < qa_row.len() && cnt < 4 {
        if skip != Some(qa_row[*kk]) {
            out[cnt] = *kk;
            cnt += 1;
        }
        *kk += 1;
    }
    cnt
}

/// Remaining `k`-steps (`from..k`) of one output row, one step at a time.
#[allow(clippy::too_many_arguments)]
fn scalar_row_tail(
    table: &[f32],
    qa: &[u8],
    r: usize,
    k: usize,
    from: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    for kk in from..k {
        let base = (qa[r * k + kk] as usize) << 8;
        let row = &table[base..base + CODES];
        let brow = &b[kk * tile..(kk + 1) * tile];
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        for (o, &q) in arow.iter_mut().zip(brow) {
            *o += row[q as usize];
        }
    }
}

/// Which hardware-gather tier the CPU supports (probed once).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq)]
enum GatherLevel {
    Avx512,
    Avx2,
    Scalar,
}

#[cfg(target_arch = "x86_64")]
fn gather_level() -> GatherLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<GatherLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f") {
            GatherLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            GatherLevel::Avx2
        } else {
            GatherLevel::Scalar
        }
    })
}

/// AVX2 body: 2 output rows × 4 k-steps, 8-lane `vgatherdps` columns;
/// single-row sweeps honor `skip` (see [`next_k_block`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx2(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    use std::arch::x86_64::*;
    let tp = table.as_ptr();
    let mut r = 0;
    while r + 2 <= rows {
        let mut kk = 0;
        while kk + 4 <= k {
            let mut base = [[0i32; 4]; 2];
            for (c, row_base) in base.iter_mut().enumerate() {
                for (i, slot) in row_base.iter_mut().enumerate() {
                    *slot = (qa[(r + c) * k + kk + i] as i32) << 8;
                }
            }
            let b0: [__m256i; 4] = std::array::from_fn(|i| _mm256_set1_epi32(base[0][i]));
            let b1: [__m256i; 4] = std::array::from_fn(|i| _mm256_set1_epi32(base[1][i]));
            let mut j = 0;
            while j + 8 <= tile {
                let q: [__m256i; 4] = std::array::from_fn(|i| {
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        b.as_ptr().add((kk + i) * tile + j) as *const __m128i
                    ))
                });
                let mut a0 = _mm256_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let g = _mm256_i32gather_ps::<4>(tp, _mm256_add_epi32(q[i], b0[i]));
                    a0 = _mm256_add_ps(a0, g);
                }
                _mm256_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                let mut a1 = _mm256_loadu_ps(acc.as_ptr().add((r + 1) * acc_stride + j));
                for i in 0..4 {
                    let g = _mm256_i32gather_ps::<4>(tp, _mm256_add_epi32(q[i], b1[i]));
                    a1 = _mm256_add_ps(a1, g);
                }
                _mm256_storeu_ps(acc.as_mut_ptr().add((r + 1) * acc_stride + j), a1);
                j += 8;
            }
            // Ragged column tail: scalar lanes, same ascending-k adds.
            for j in j..tile {
                for (c, row_base) in base.iter().enumerate() {
                    let slot = (r + c) * acc_stride + j;
                    let mut a = acc[slot];
                    for (i, &rb) in row_base.iter().enumerate() {
                        a += table[rb as usize + b[(kk + i) * tile + j] as usize];
                    }
                    acc[slot] = a;
                }
            }
            kk += 4;
        }
        for c in 0..2 {
            scalar_row_tail(table, qa, r + c, k, kk, b, tile, acc, acc_stride);
        }
        r += 2;
    }
    // Odd final row (and the whole GEMM when `rows == 1` — every dense
    // layer): same 4-step k blocks over not-skipped steps, single
    // accumulator row.
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 8;
                    let row = &table[base..base + CODES];
                    let brow = &b[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(brow) {
                        *o += row[q as usize];
                    }
                }
                break;
            }
            let mut base = [0i32; 4];
            for (i, slot) in base.iter_mut().enumerate() {
                *slot = (qa_row[ks[i]] as i32) << 8;
            }
            let bv: [__m256i; 4] = std::array::from_fn(|i| _mm256_set1_epi32(base[i]));
            let mut j = 0;
            while j + 8 <= tile {
                let mut a0 = _mm256_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let q = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        b.as_ptr().add(ks[i] * tile + j) as *const __m128i
                    ));
                    let g = _mm256_i32gather_ps::<4>(tp, _mm256_add_epi32(q, bv[i]));
                    a0 = _mm256_add_ps(a0, g);
                }
                _mm256_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                j += 8;
            }
            for j in j..tile {
                let slot = r * acc_stride + j;
                let mut a = acc[slot];
                for (i, &rb) in base.iter().enumerate() {
                    a += table[rb as usize + b[ks[i] * tile + j] as usize];
                }
                acc[slot] = a;
            }
        }
        r += 1;
    }
}

/// AVX-512 body: 2 output rows × 4 k-steps, 16-lane gather columns;
/// single-row sweeps honor `skip` (see [`next_k_block`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_avx512(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    use std::arch::x86_64::*;
    let tp = table.as_ptr();
    let mut r = 0;
    while r + 2 <= rows {
        let mut kk = 0;
        while kk + 4 <= k {
            let mut base = [[0i32; 4]; 2];
            for (c, row_base) in base.iter_mut().enumerate() {
                for (i, slot) in row_base.iter_mut().enumerate() {
                    *slot = (qa[(r + c) * k + kk + i] as i32) << 8;
                }
            }
            let b0: [__m512i; 4] = std::array::from_fn(|i| _mm512_set1_epi32(base[0][i]));
            let b1: [__m512i; 4] = std::array::from_fn(|i| _mm512_set1_epi32(base[1][i]));
            let mut j = 0;
            while j + 16 <= tile {
                let q: [__m512i; 4] = std::array::from_fn(|i| {
                    _mm512_cvtepu8_epi32(_mm_loadu_si128(
                        b.as_ptr().add((kk + i) * tile + j) as *const __m128i
                    ))
                });
                let mut a0 = _mm512_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let g = _mm512_i32gather_ps::<4>(_mm512_add_epi32(q[i], b0[i]), tp);
                    a0 = _mm512_add_ps(a0, g);
                }
                _mm512_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                let mut a1 = _mm512_loadu_ps(acc.as_ptr().add((r + 1) * acc_stride + j));
                for i in 0..4 {
                    let g = _mm512_i32gather_ps::<4>(_mm512_add_epi32(q[i], b1[i]), tp);
                    a1 = _mm512_add_ps(a1, g);
                }
                _mm512_storeu_ps(acc.as_mut_ptr().add((r + 1) * acc_stride + j), a1);
                j += 16;
            }
            for j in j..tile {
                for (c, row_base) in base.iter().enumerate() {
                    let slot = (r + c) * acc_stride + j;
                    let mut a = acc[slot];
                    for (i, &rb) in row_base.iter().enumerate() {
                        a += table[rb as usize + b[(kk + i) * tile + j] as usize];
                    }
                    acc[slot] = a;
                }
            }
            kk += 4;
        }
        for c in 0..2 {
            scalar_row_tail(table, qa, r + c, k, kk, b, tile, acc, acc_stride);
        }
        r += 2;
    }
    // Odd final row (and the whole GEMM when `rows == 1` — every dense
    // layer): same 4-step k blocks over not-skipped steps, single
    // accumulator row.
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 8;
                    let row = &table[base..base + CODES];
                    let brow = &b[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(brow) {
                        *o += row[q as usize];
                    }
                }
                break;
            }
            let mut base = [0i32; 4];
            for (i, slot) in base.iter_mut().enumerate() {
                *slot = (qa_row[ks[i]] as i32) << 8;
            }
            let bv: [__m512i; 4] = std::array::from_fn(|i| _mm512_set1_epi32(base[i]));
            let mut j = 0;
            while j + 16 <= tile {
                let mut a0 = _mm512_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let q = _mm512_cvtepu8_epi32(_mm_loadu_si128(
                        b.as_ptr().add(ks[i] * tile + j) as *const __m128i
                    ));
                    let g = _mm512_i32gather_ps::<4>(_mm512_add_epi32(q, bv[i]), tp);
                    a0 = _mm512_add_ps(a0, g);
                }
                _mm512_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                j += 16;
            }
            for j in j..tile {
                let slot = r * acc_stride + j;
                let mut a = acc[slot];
                for (i, &rb) in base.iter().enumerate() {
                    a += table[rb as usize + b[ks[i] * tile + j] as usize];
                }
                acc[slot] = a;
            }
        }
        r += 1;
    }
}

// ---------------------------------------------------------------------------
// Int4 weight codes: 256×16 product tables and in-register shuffle GEMM.
//
// With weights down to 16 codes (activations stay u8), each activation code
// selects one 16-entry table row — 64 bytes, exactly one cache line, one zmm
// register. The inner loop needs no hardware gather at all: the row is
// register-resident and each weight code picks its product with a shuffle
// (`vpermps`), which retires ~an order of magnitude faster than `vgatherdps`.
// ---------------------------------------------------------------------------

/// Which operand of the underlying multiplier the **weight** is — product
/// tables bake the operand order in, and approximate multipliers need not be
/// commutative. Convolutions multiply `(weight, activation)`
/// ([`Lut4Order::WeightsLeft`]); this crate's dense reference multiplies
/// `(activation, weight)` ([`Lut4Order::ActivationsLeft`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lut4Order {
    /// Entry `(qact, qw)` is `m.multiply(w(qw), act(qact))`.
    WeightsLeft,
    /// Entry `(qact, qw)` is `m.multiply(act(qact), w(qw))`.
    ActivationsLeft,
}

/// The 256×16 product table of one [`Multiplier`] over an activation
/// quantizer and an int4 **weight** quantizer:
/// `table[(qact << 4) | qw]` is the multiplier's product over the decoded
/// pair, in the operand order recorded by [`Lut4Order`] — 4 Ki entries,
/// 16 KiB (L1-resident; each activation code's row is one cache line).
#[derive(Clone)]
pub struct ProductLut4 {
    table: Storage<f32>,
    act: QuantParams,
    w: QuantParams4,
    order: Lut4Order,
    /// Whether the activation zero-point row is exactly `±0.0` (it is for
    /// every multiplier in the tree) — enables the same bitwise-neutral
    /// zero-point skip as [`ProductLut::zero_a_row`].
    zero_act_row: bool,
}

impl ProductLut4 {
    /// Evaluate `m` over every (activation, weight) code pair.
    ///
    /// Rows (one per activation code) are built in parallel; every entry is
    /// an independent scalar `multiply`, so the result is bit-identical to
    /// the sequential build regardless of thread count.
    pub fn build(
        m: &dyn Multiplier,
        act: QuantParams,
        w: QuantParams4,
        order: Lut4Order,
    ) -> ProductLut4 {
        let mut table = vec![0.0f32; CODES * CODES4];
        par_map_chunks(&mut table, CODES4, |qa, row| {
            let av = act.dequantize(qa as u8);
            for (qw, slot) in row.iter_mut().enumerate() {
                let wv = w.dequantize(qw as u8);
                *slot = match order {
                    Lut4Order::WeightsLeft => m.multiply(wv, av),
                    Lut4Order::ActivationsLeft => m.multiply(av, wv),
                };
            }
        });
        ProductLut4::from_parts(Storage::Owned(table), act, w, order)
    }

    /// Reassemble a table from storage (owned or borrowed from a snapshot
    /// mapping), its quantizers, and the operand order — the int4 companion
    /// of [`ProductLut::from_parts`]. The zero-point-row skip flag is
    /// rederived from the actual entries.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not hold exactly `CODES * CODES4` entries.
    pub fn from_parts(
        table: Storage<f32>,
        act: QuantParams,
        w: QuantParams4,
        order: Lut4Order,
    ) -> ProductLut4 {
        assert_eq!(table.len(), CODES * CODES4, "ProductLut4 table must be 256x16");
        let zp = act.zero_point() as usize;
        let zero_act_row = table.as_slice()[zp << 4..(zp << 4) + CODES4].iter().all(|v| *v == 0.0);
        ProductLut4 { table, act, w, order, zero_act_row }
    }

    /// The product for code pair `(qact, qw)` — bit-identical to the scalar
    /// multiplier over the decoded pair (codes taken modulo their width,
    /// like every kernel path).
    #[inline]
    pub fn product(&self, qact: u8, qw: u8) -> f32 {
        self.table.as_slice()[((qact as usize) << 4) | (qw & 0xF) as usize]
    }

    /// The activation-side quantizer.
    pub fn act_params(&self) -> QuantParams {
        self.act
    }

    /// The weight-side int4 quantizer.
    pub fn w_params(&self) -> QuantParams4 {
        self.w
    }

    /// The operand order the table was built with.
    pub fn order(&self) -> Lut4Order {
        self.order
    }

    /// The raw table (`[(qact << 4) | qw]` layout), for kernels.
    #[inline]
    pub fn table(&self) -> &[f32] {
        self.table.as_slice()
    }

    /// Whether the table entries borrow a mapped snapshot (vs heap-owned).
    pub fn is_mapped(&self) -> bool {
        self.table.is_mapped()
    }
}

impl std::fmt::Debug for ProductLut4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProductLut4")
            .field("act", &self.act)
            .field("w", &self.w)
            .field("order", &self.order)
            .field("entries", &self.table.len())
            .finish()
    }
}

/// Int4-weight shuffle GEMM over code matrices:
/// `acc[r·acc_stride + j] += lut[(qa[r·k + kk] << 4) | qw[kk·tile + j]]` for
/// every output row `r < rows` and column `j < tile`, accumulated with `kk`
/// ascending per element — bit-identical to [`lut4_gemm_reference`] (and
/// therefore to the scalar multiplier over dequantized codes).
///
/// `qa` holds u8 **activation** codes (the row side) and `qw` int4 **weight**
/// codes in the low nibble (taken modulo 16 on every path). Convolutions run
/// this formulation transposed — patch pixels as rows, out-channels as
/// columns — so the 4-bit codes always vary along the vectorized `j` axis,
/// which is what lets each activation's 16-entry table row stay in one
/// register and each weight code pick its product with an in-register
/// shuffle instead of a hardware gather.
///
/// Dispatches at runtime to AVX-512 (`vpermps` over a zmm-resident row) /
/// AVX2 (two ymm halves + `vpermps` + blend) shuffle kernels, falling back
/// to [`lut4_gemm_scalar`]; every path is bit-identical. Rows additionally
/// skip activation codes at the zero point when that table row is exactly
/// `±0.0` (same bitwise-neutral contract as [`lut_gemm`]).
///
/// # Panics
///
/// Panics as [`lut_gemm`] does (same shape preconditions).
pub fn lut4_gemm(
    lut: &ProductLut4,
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, qw, tile, acc, acc_stride);
    let skip = if lut.zero_act_row { Some(lut.act.zero_point()) } else { None };
    #[cfg(target_arch = "x86_64")]
    {
        match gather_level() {
            GatherLevel::Avx512 => {
                // SAFETY: preconditions checked above; the kernel requires
                // avx512f, which `gather_level` just probed.
                unsafe {
                    gemm4_avx512(lut.table.as_slice(), qa, rows, k, qw, tile, acc, acc_stride, skip)
                }
                return;
            }
            GatherLevel::Avx2 => {
                // SAFETY: as above, for avx2.
                unsafe {
                    gemm4_avx2(lut.table.as_slice(), qa, rows, k, qw, tile, acc, acc_stride, skip)
                }
                return;
            }
            GatherLevel::Scalar => {}
        }
    }
    gemm4_scalar(lut.table.as_slice(), qa, rows, k, qw, tile, acc, acc_stride, skip);
}

/// The portable scalar body of [`lut4_gemm`] (also its non-x86 and pre-AVX2
/// fallback), exposed so conformance tests can pin every dispatch path
/// against the same reference.
///
/// # Panics
///
/// Panics as [`lut4_gemm`] does.
pub fn lut4_gemm_scalar(
    lut: &ProductLut4,
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, qw, tile, acc, acc_stride);
    let skip = if lut.zero_act_row { Some(lut.act.zero_point()) } else { None };
    gemm4_scalar(lut.table.as_slice(), qa, rows, k, qw, tile, acc, acc_stride, skip);
}

/// The semantic ground truth [`lut4_gemm`] is tested against: the same loop
/// with every product computed by the scalar multiplier on dequantized codes
/// in the table's operand order.
///
/// # Panics
///
/// Panics as [`lut4_gemm`] does.
#[allow(clippy::too_many_arguments)]
pub fn lut4_gemm_reference(
    m: &dyn Multiplier,
    act: QuantParams,
    w: QuantParams4,
    order: Lut4Order,
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    check_gemm(qa, rows, k, qw, tile, acc, acc_stride);
    for r in 0..rows {
        let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
        for kk in 0..k {
            let av = act.dequantize(qa[r * k + kk]);
            let wrow = &qw[kk * tile..(kk + 1) * tile];
            for (o, &cw) in acc_row.iter_mut().zip(wrow) {
                let wv = w.dequantize(cw);
                *o += match order {
                    Lut4Order::WeightsLeft => m.multiply(wv, av),
                    Lut4Order::ActivationsLeft => m.multiply(av, wv),
                };
            }
        }
    }
}

/// Scalar int4 kernel: per output row, 4 not-skipped k-steps blocked so each
/// accumulator round-trips memory once per four products (mirroring
/// [`gemm_scalar`]'s single-row path — the skip applies to every row here
/// because each output row owns its accumulators).
#[allow(clippy::too_many_arguments)]
fn gemm4_scalar(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    for r in 0..rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt == 4 {
                let base = [
                    (qa_row[ks[0]] as usize) << 4,
                    (qa_row[ks[1]] as usize) << 4,
                    (qa_row[ks[2]] as usize) << 4,
                    (qa_row[ks[3]] as usize) << 4,
                ];
                let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                for (j, o) in arow.iter_mut().enumerate() {
                    let mut a = *o;
                    a += table[base[0] + (qw[ks[0] * tile + j] & 0xF) as usize];
                    a += table[base[1] + (qw[ks[1] * tile + j] & 0xF) as usize];
                    a += table[base[2] + (qw[ks[2] * tile + j] & 0xF) as usize];
                    a += table[base[3] + (qw[ks[3] * tile + j] & 0xF) as usize];
                    *o = a;
                }
            } else {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 4;
                    let row = &table[base..base + CODES4];
                    let wrow = &qw[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(wrow) {
                        *o += row[(q & 0xF) as usize];
                    }
                }
                break;
            }
        }
    }
}

/// AVX-512 int4 body: each activation code's 16-entry table row is loaded
/// once into a zmm register; 16 weight codes per step pick their products
/// with `vpermps` (`_mm512_permutexvar_ps` indexes modulo 16, matching the
/// scalar nibble mask). No gathers anywhere in the loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm4_avx512(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    use std::arch::x86_64::*;
    for r in 0..rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 4;
                    let row = &table[base..base + CODES4];
                    let wrow = &qw[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(wrow) {
                        *o += row[(q & 0xF) as usize];
                    }
                }
                break;
            }
            let rowv: [__m512; 4] = std::array::from_fn(|i| {
                _mm512_loadu_ps(table.as_ptr().add((qa_row[ks[i]] as usize) << 4))
            });
            let mut j = 0;
            while j + 16 <= tile {
                let mut a0 = _mm512_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let idx = _mm512_cvtepu8_epi32(_mm_loadu_si128(
                        qw.as_ptr().add(ks[i] * tile + j) as *const __m128i,
                    ));
                    a0 = _mm512_add_ps(a0, _mm512_permutexvar_ps(idx, rowv[i]));
                }
                _mm512_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                j += 16;
            }
            for j in j..tile {
                let slot = r * acc_stride + j;
                let mut a = acc[slot];
                for &ki in &ks {
                    a += table[((qa_row[ki] as usize) << 4) + (qw[ki * tile + j] & 0xF) as usize];
                }
                acc[slot] = a;
            }
        }
    }
}

/// AVX2 int4 body: each table row lives in two ymm halves (codes 0–7 and
/// 8–15); `vpermps` picks from both and a blend on index bit 3 (shifted to
/// the sign position) selects the half — still no gathers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm4_avx2(
    table: &[f32],
    qa: &[u8],
    rows: usize,
    k: usize,
    qw: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
    skip: Option<u8>,
) {
    use std::arch::x86_64::*;
    for r in 0..rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                for &ki in &ks[..cnt] {
                    let base = (qa_row[ki] as usize) << 4;
                    let row = &table[base..base + CODES4];
                    let wrow = &qw[ki * tile..(ki + 1) * tile];
                    let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
                    for (o, &q) in arow.iter_mut().zip(wrow) {
                        *o += row[(q & 0xF) as usize];
                    }
                }
                break;
            }
            let lo: [__m256; 4] = std::array::from_fn(|i| {
                _mm256_loadu_ps(table.as_ptr().add((qa_row[ks[i]] as usize) << 4))
            });
            let hi: [__m256; 4] = std::array::from_fn(|i| {
                _mm256_loadu_ps(table.as_ptr().add(((qa_row[ks[i]] as usize) << 4) + 8))
            });
            let mut j = 0;
            while j + 8 <= tile {
                let mut a0 = _mm256_loadu_ps(acc.as_ptr().add(r * acc_stride + j));
                for i in 0..4 {
                    let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        qw.as_ptr().add(ks[i] * tile + j) as *const __m128i,
                    ));
                    let pick_lo = _mm256_permutevar8x32_ps(lo[i], idx);
                    let pick_hi = _mm256_permutevar8x32_ps(hi[i], idx);
                    let sel = _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28));
                    a0 = _mm256_add_ps(a0, _mm256_blendv_ps(pick_lo, pick_hi, sel));
                }
                _mm256_storeu_ps(acc.as_mut_ptr().add(r * acc_stride + j), a0);
                j += 8;
            }
            for j in j..tile {
                let slot = r * acc_stride + j;
                let mut a = acc[slot];
                for &ki in &ks {
                    a += table[((qa_row[ki] as usize) << 4) + (qw[ki * tile + j] & 0xF) as usize];
                }
                acc[slot] = a;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMultiplier;

    #[test]
    fn from_range_includes_zero_and_round_trips_grid() {
        let q = QuantParams::from_range(-1.0, 3.0);
        assert!(q.scale() > 0.0);
        assert_eq!(q.dequantize(q.zero_point()), 0.0);
        // Every code round-trips through quantize(dequantize(code)).
        for code in 0..=255u8 {
            assert_eq!(q.quantize(q.dequantize(code)), code, "code {code}");
        }
    }

    #[test]
    fn positive_only_and_negative_only_ranges_still_contain_zero() {
        let pos = QuantParams::from_range(0.5, 4.0);
        assert_eq!(pos.zero_point(), 0, "range widened down to zero");
        let neg = QuantParams::from_range(-4.0, -0.5);
        assert_eq!(neg.zero_point(), 255, "range widened up to zero");
        assert_eq!(neg.dequantize(255), 0.0);
    }

    #[test]
    fn degenerate_and_nonfinite_ranges_fall_back_to_unit_scale() {
        for (lo, hi) in [(0.0, 0.0), (2.0, 2.0), (f32::NAN, 1.0), (0.0, f32::INFINITY)] {
            let q = QuantParams::from_range(lo, hi);
            assert!(q.scale().is_finite() && q.scale() > 0.0, "({lo}, {hi}) -> {q:?}");
        }
    }

    #[test]
    fn quantize_saturates_and_maps_nan_to_zero_point() {
        let q = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(q.quantize(-100.0), 0);
        assert_eq!(q.quantize(100.0), 255);
        assert_eq!(q.quantize(f32::NAN), q.zero_point());
        assert_eq!(q.quantize(f32::INFINITY), 255);
        assert_eq!(q.quantize(f32::NEG_INFINITY), 0);
    }

    #[test]
    fn observe_ignores_nan_and_handles_empty() {
        assert_eq!(QuantParams::observe(&[]), (0.0, 0.0));
        assert_eq!(QuantParams::observe(&[f32::NAN]), (0.0, 0.0));
        assert_eq!(QuantParams::observe(&[1.0, f32::NAN, -2.0]), (-2.0, 1.0));
    }

    #[test]
    fn lut_stores_exact_products() {
        let a = QuantParams::from_range(-2.0, 2.0);
        let b = QuantParams::from_range(0.0, 1.0);
        let lut = ProductLut::build(&ExactMultiplier, a, b);
        for (qa, qb) in [(0u8, 0u8), (17, 200), (255, 255), (a.zero_point(), 9)] {
            let want = a.dequantize(qa) * b.dequantize(qb);
            assert_eq!(lut.product(qa, qb).to_bits(), want.to_bits());
        }
        assert_eq!(lut.a_params(), a);
        assert_eq!(lut.b_params(), b);
    }

    #[test]
    fn requantize_fuses_bias_and_relu() {
        let q = QuantParams::from_range(0.0, 10.0);
        let acc = [-3.0f32, 0.0, 4.0];
        let mut out = [0u8; 3];
        requantize_bias_act(&acc, 1.0, true, &q, &mut out);
        assert_eq!(out[0], q.quantize(0.0), "relu clamps -2");
        assert_eq!(out[1], q.quantize(1.0));
        assert_eq!(out[2], q.quantize(5.0));
        requantize_bias_act(&acc, 1.0, false, &q, &mut out);
        assert_eq!(out[0], q.quantize(-2.0), "no relu: saturates at the range floor");
    }

    #[test]
    #[should_panic(expected = "rows overlap")]
    fn gemm_rejects_overlapping_rows() {
        let lut = ProductLut::build(
            &ExactMultiplier,
            QuantParams::from_range(0.0, 1.0),
            QuantParams::from_range(0.0, 1.0),
        );
        let mut acc = [0.0f32; 8];
        lut_gemm(&lut, &[0, 0], 2, 1, &[0, 0, 0], 3, &mut acc, 2);
    }

    #[test]
    #[should_panic(expected = "acc too small")]
    fn gemm_rejects_short_acc() {
        let lut = ProductLut::build(
            &ExactMultiplier,
            QuantParams::from_range(0.0, 1.0),
            QuantParams::from_range(0.0, 1.0),
        );
        let mut acc = [0.0f32; 5];
        lut_gemm(&lut, &[0, 0], 2, 1, &[0, 0, 0], 3, &mut acc, 3);
    }

    #[test]
    fn int4_params_include_zero_and_round_trip_grid() {
        let q = QuantParams4::from_range(-1.0, 3.0);
        assert!(q.scale() > 0.0);
        assert_eq!(q.dequantize(q.zero_point()), 0.0);
        for code in 0..CODES4 as u8 {
            assert_eq!(q.quantize(q.dequantize(code)), code, "code {code}");
        }
        // Codes dequantize modulo 16, like every kernel path.
        assert_eq!(q.dequantize(0x35).to_bits(), q.dequantize(0x5).to_bits());
        // Saturation + NaN behaviour mirrors the u8 quantizer.
        assert_eq!(q.quantize(-100.0), 0);
        assert_eq!(q.quantize(100.0), 15);
        assert_eq!(q.quantize(f32::NAN), q.zero_point());
        for (lo, hi) in [(0.0, 0.0), (f32::NAN, 1.0), (0.0, f32::INFINITY)] {
            let d = QuantParams4::from_range(lo, hi);
            assert!(d.scale().is_finite() && d.scale() > 0.0, "({lo}, {hi}) -> {d:?}");
        }
        let pos = QuantParams4::from_range(0.5, 4.0);
        assert_eq!(pos.zero_point(), 0, "range widened down to zero");
        let neg = QuantParams4::from_range(-4.0, -0.5);
        assert_eq!(neg.zero_point(), 15, "range widened up to zero");
    }

    #[test]
    fn lut4_stores_exact_products_in_both_operand_orders() {
        let act = QuantParams::from_range(-2.0, 2.0);
        let w = QuantParams4::from_range(-1.5, 0.5);
        for order in [Lut4Order::WeightsLeft, Lut4Order::ActivationsLeft] {
            let lut = ProductLut4::build(&ExactMultiplier, act, w, order);
            for (qa, qw) in [(0u8, 0u8), (17, 9), (255, 15), (act.zero_point(), 3)] {
                let (x, y) = match order {
                    Lut4Order::WeightsLeft => (w.dequantize(qw), act.dequantize(qa)),
                    Lut4Order::ActivationsLeft => (act.dequantize(qa), w.dequantize(qw)),
                };
                assert_eq!(lut.product(qa, qw).to_bits(), (x * y).to_bits());
            }
            assert_eq!(lut.act_params(), act);
            assert_eq!(lut.w_params(), w);
            assert_eq!(lut.order(), order);
            assert_eq!(lut.table().len(), CODES * CODES4);
        }
    }

    #[test]
    fn lut4_gemm_matches_reference_on_all_paths() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let act = QuantParams::from_range(-1.0, 1.0);
        let w = QuantParams4::from_range(-1.0, 1.0);
        let m = ExactMultiplier;
        for order in [Lut4Order::WeightsLeft, Lut4Order::ActivationsLeft] {
            let lut = ProductLut4::build(&m, act, w, order);
            for (rows, k, tile) in [(1, 1, 1), (2, 7, 15), (3, 9, 17), (4, 13, 33), (5, 150, 64)] {
                let stride = tile + 3;
                let mut qa: Vec<u8> = (0..rows * k).map(|_| rng.gen()).collect();
                // Plant zero-point codes so the skip path runs.
                for slot in qa.iter_mut().step_by(5) {
                    *slot = act.zero_point();
                }
                let qw: Vec<u8> = (0..k * tile).map(|_| rng.gen::<u8>() & 0xF).collect();
                let seed: Vec<f32> =
                    (0..rows * stride).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

                let mut want = seed.clone();
                lut4_gemm_reference(&m, act, w, order, &qa, rows, k, &qw, tile, &mut want, stride);
                let mut got = seed.clone();
                lut4_gemm(&lut, &qa, rows, k, &qw, tile, &mut got, stride);
                let mut got_s = seed.clone();
                lut4_gemm_scalar(&lut, &qa, rows, k, &qw, tile, &mut got_s, stride);
                for i in 0..want.len() {
                    assert_eq!(got[i].to_bits(), want[i].to_bits(), "{rows}x{k}x{tile} [{i}]");
                    assert_eq!(
                        got_s[i].to_bits(),
                        want[i].to_bits(),
                        "scalar {rows}x{k}x{tile} [{i}]"
                    );
                }
            }
        }
    }

    #[test]
    fn lut4_gemm_ignores_high_weight_nibble() {
        let act = QuantParams::from_range(-1.0, 1.0);
        let w = QuantParams4::from_range(-1.0, 1.0);
        let lut = ProductLut4::build(&ExactMultiplier, act, w, Lut4Order::ActivationsLeft);
        let qa = [200u8, 3, 77];
        let qw_lo: Vec<u8> = (0..3 * 19).map(|i| (i % 16) as u8).collect();
        let qw_hi: Vec<u8> = qw_lo.iter().map(|&q| q | 0xA0).collect();
        let mut a = vec![0.0f32; 19];
        let mut b = vec![0.0f32; 19];
        lut4_gemm(&lut, &qa, 1, 3, &qw_lo, 19, &mut a, 19);
        lut4_gemm(&lut, &qa, 1, 3, &qw_hi, 19, &mut b, 19);
        for i in 0..19 {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "[{i}]");
        }
    }

    #[test]
    #[should_panic(expected = "acc too small")]
    fn lut4_gemm_rejects_short_acc() {
        let lut = ProductLut4::build(
            &ExactMultiplier,
            QuantParams::from_range(0.0, 1.0),
            QuantParams4::from_range(0.0, 1.0),
            Lut4Order::ActivationsLeft,
        );
        let mut acc = [0.0f32; 5];
        lut4_gemm(&lut, &[0, 0], 2, 1, &[0, 0, 0], 3, &mut acc, 3);
    }
}
