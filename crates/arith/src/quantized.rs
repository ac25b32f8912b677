//! Quantized arithmetic: affine quantizers, per-multiplier product tables,
//! and one table-lookup GEMM.
//!
//! Once operands are small integer codes, any [`Multiplier`] — gate-level
//! HEAP and ablation wirings just like the closed-form AMA5/exact/Bfloat16
//! cores — has only a few thousand possible products. A [`ProductLut`]
//! therefore evaluates the *actual* scalar multiplier once per code pair at
//! build time and the entire GEMM hot path collapses into table lookups: no
//! per-element field decomposition, no row classification, no clamp selects,
//! and no gate-level simulation at serving time. The table is **exact with
//! respect to the hardware model it replaces by construction**: entry
//! `(qa, qb)` is bit-identical to the scalar multiplier over the decoded
//! code pair (exhaustively asserted for every [`crate::MultiplierKind`], at
//! both table widths, in `tests/quantized_conformance.rs`).
//!
//! # One table family, two widths
//!
//! A table has 256 rows, one per code of its int8 row quantizer, and as
//! many columns as its column quantizer has codes:
//!
//! * **int8** (`256 × 256`, 256 KiB): both operands are `u8` codes, and
//!   [`lut_gemm`] looks products up with hardware gathers.
//! * **int4 weights** (`256 × 16`, 16 KiB): the column operand is a 4-bit
//!   code in the low nibble of a `u8` (taken modulo 16 on every path). A
//!   row code's 16 products fill one 64-byte cache line — one zmm register
//!   — so [`lut_gemm`] picks them with an in-register shuffle (`vpermps`),
//!   which retires far faster than a gather.
//!
//! [`lut_gemm`] picks the gather or the shuffle bodies from the table it is
//! handed. Approximate multipliers need not commute, so a table also
//! records which of its two codes is the multiplier's left operand
//! ([`LutOrder`]).
//!
//! # Quantization contract
//!
//! * **Affine, per-tensor.** A [`QuantParams`] is a positive `scale`, a
//!   `zero_point` code, and a code count (256 or 16):
//!   `dequantize(q) = scale · (q − zero_point)` and
//!   `quantize(x) = round(x / scale) + zero_point` saturated to the code
//!   range. The zero point is always a valid code, so the real value `0.0`
//!   is exactly representable — convolution padding and ReLU cut-offs
//!   quantize without error.
//! * **Calibration from observed ranges.** [`QuantParams::from_range`]
//!   (int8) and [`QuantParams::from_range_codes`] take the `[lo, hi]`
//!   interval a tensor was observed to occupy (serving plans record it on a
//!   calibration batch, see `da_nn::engine`), widen it to contain zero, and
//!   spread the codes uniformly across it. Degenerate ranges fall back to
//!   unit scale.
//! * **`f32` table entries and `f32` accumulation.** The classic int8 GEMM
//!   accumulates `i32` products, but re-quantizing the *approximate
//!   multiplier's* products onto an integer grid would add a second error
//!   source and break bit-faithfulness to the gate-level datapath. This
//!   crate's contract everywhere is "only the multiplier is approximate;
//!   additions stay exact `f32`" — the table keeps it: entries are the
//!   multiplier's own `f32` products, and [`lut_gemm`] accumulates them with
//!   exact `f32` adds, `k` ascending per output element (the batched GEMM's
//!   order).
//!
//! # When tables beat the SIMD lane kernels
//!
//! The [`crate::simd`] lane kernels are the fastest *full-precision* path:
//! they need the real 24-bit significands. Tables win whenever operands
//! are codes, for two different reasons:
//!
//! * **Closed-form cores** (AMA5, exact, Bfloat16): one lookup per MAC
//!   replaces the whole decompose → exponent-add → clamp-select pipeline —
//!   ~1.5× the lane kernels' GEMM throughput with int8 gathers and ~3× the
//!   serving-engine throughput, where the f32 path also pays per-plane
//!   classification and f32 patch gathers; int4 shuffles run faster still.
//! * **Gate-level cores** (HEAP, ablation wirings): these have *no* lane
//!   kernels — every product simulates an array multiplier (64 or 8×64 at
//!   a time on the [`crate::bitslice`] plane sweep). A table runs them at
//!   exactly the same speed as the closed-form cores, while staying
//!   bit-faithful to the gates.
//!
//! The bodies are runtime-dispatched (AVX-512 → AVX2 → portable scalar).
//! There is no autovectorizable formulation of a table lookup, so the
//! hand-written bodies are always compiled in on x86-64; every dispatch
//! path is bit-identical (same table entries, same per-element add order —
//! property-tested in `tests/quantized_conformance.rs`).
//!
//! # Example
//!
//! ```
//! use da_arith::quantized::{lut_gemm, ProductLut, QuantParams, CODES4};
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
//! // A 1x1 "GEMM" over codes looks up the same product.
//! let mut acc = [0.0f32];
//! lut_gemm(&lut, &[qa], 1, 1, &[qb], 1, &mut acc, 1);
//! assert_eq!(acc[0].to_bits(), lut.product(qa, qb).to_bits());
//!
//! // A 16-code column quantizer makes a 256x16 table; the same call
//! // shuffles instead of gathering.
//! let w4 = QuantParams::from_range_codes(-1.0, 1.0, CODES4);
//! let lut4 = ProductLut::build(&*m, x, w4);
//! let mut acc = [0.0f32];
//! lut_gemm(&lut4, &[qb], 1, 1, &[w4.quantize(0.5)], 1, &mut acc, 1);
//! assert_eq!(acc[0].to_bits(), lut4.product(qb, w4.quantize(0.5)).to_bits());
//! ```

use crate::multiplier::Multiplier;
use crate::storage::Storage;
use da_tensor::parallel::par_map_chunks;

/// Codes per int8 operand side.
pub const CODES: usize = 256;

/// Codes per int4 operand side (4-bit weight codes).
pub const CODES4: usize = 16;

/// An affine per-tensor quantizer: `value = scale · (code − zero_point)`,
/// over 256 codes (int8) or 16 codes (int4, in the low nibble of a `u8`).
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
    /// The largest code, 255 or 15. Code counts are powers of two, so this
    /// is also the mask that takes a code modulo the count.
    max_code: u8,
}

/// The largest code of a quantizer with `codes` codes.
fn max_code(codes: usize) -> u8 {
    assert!(
        codes == CODES || codes == CODES4,
        "a quantizer has {CODES} or {CODES4} codes, not {codes}"
    );
    (codes - 1) as u8
}

/// Whether `scale` can carry a quantizer: positive, finite, and with a
/// finite reciprocal.
fn valid_scale(scale: f32) -> bool {
    scale > 0.0 && scale.is_finite() && (1.0 / scale).is_finite()
}

impl QuantParams {
    /// An int8 quantizer spanning the observed value range `[lo, hi]` (see
    /// [`QuantParams::from_range_codes`]).
    pub fn from_range(lo: f32, hi: f32) -> QuantParams {
        QuantParams::from_range_codes(lo, hi, CODES)
    }

    /// A quantizer with `codes` codes ([`CODES`] or [`CODES4`]) spanning the
    /// observed value range `[lo, hi]`.
    ///
    /// The range is widened to include `0.0` (so the zero code exists), then
    /// the codes are spread uniformly across it. Degenerate or non-finite
    /// ranges (empty tensors, all-constant tensors) fall back to unit scale
    /// around zero.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is neither [`CODES`] nor [`CODES4`].
    pub fn from_range_codes(lo: f32, hi: f32, codes: usize) -> QuantParams {
        let max_code = max_code(codes);
        let lo = if lo.is_finite() { lo.min(0.0) } else { 0.0 };
        let hi = if hi.is_finite() { hi.max(0.0) } else { 0.0 };
        let scale = (hi - lo) / max_code as f32;
        if !valid_scale(scale) {
            return QuantParams { scale: 1.0, inv_scale: 1.0, zero_point: 0, max_code };
        }
        // Nudge the zero point onto the code grid; rounding keeps it within
        // the code range because lo <= 0 <= hi.
        let zero_point = (-lo / scale).round().clamp(0.0, max_code as f32) as u8;
        QuantParams { scale, inv_scale: 1.0 / scale, zero_point, max_code }
    }

    /// Reassemble a `codes`-code quantizer from its serialized
    /// `(scale, zero_point)` pair — the snapshot-load path. `inv_scale` is
    /// recomputed as `1.0 / scale`, exactly as
    /// [`QuantParams::from_range_codes`] does, so the round trip is
    /// bit-identical. Returns `None` for a scale no valid quantizer can
    /// carry (non-positive, non-finite, or with a non-finite reciprocal) or
    /// a zero point off the code grid, turning hostile snapshot bytes into a
    /// typed error instead of NaN arithmetic downstream.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is neither [`CODES`] nor [`CODES4`].
    pub fn from_parts(scale: f32, zero_point: u8, codes: usize) -> Option<QuantParams> {
        let max_code = max_code(codes);
        if zero_point > max_code || !valid_scale(scale) {
            return None;
        }
        Some(QuantParams { scale, inv_scale: 1.0 / scale, zero_point, max_code })
    }

    /// The positive step between adjacent codes.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The code representing exactly `0.0`.
    pub fn zero_point(&self) -> u8 {
        self.zero_point
    }

    /// How many codes the quantizer has: [`CODES`] or [`CODES4`].
    pub fn codes(&self) -> usize {
        self.max_code as usize + 1
    }

    /// The real value of `code`, taken modulo the code count (exact: one
    /// `f32` multiply of exact ints).
    #[inline]
    pub fn dequantize(&self, code: u8) -> f32 {
        self.scale * ((code & self.max_code) as i32 - self.zero_point as i32) as f32
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
        // trick instead — saturate in f32, push the value into the mantissa
        // range where the float grid *is* the integers (one RNE add), and
        // read the code out of the low mantissa bits. Every step is a plain
        // vector op (mul/add/max/min/select/bitcast). Saturation is
        // `max`/`min`, not `clamp`: with the per-quantizer upper bound,
        // `clamp` would assert `min <= max` inside the loop.
        let v = x * self.inv_scale + self.zero_point as f32;
        let v = if x.is_nan() { self.zero_point as f32 } else { v };
        let magic = (1u32 << 23) as f32;
        let f = v.max(0.0).min(self.max_code as f32) + magic;
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

/// Which of a table's two codes is the multiplier's **left** operand —
/// tables bake the operand order in, and approximate multipliers need not
/// be commutative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LutOrder {
    /// Entry `(qa, qb)` is `m.multiply(a(qa), b(qb))`.
    RowLeft,
    /// Entry `(qa, qb)` is `m.multiply(b(qb), a(qa))`.
    ColumnLeft,
}

impl LutOrder {
    /// `m`'s product of a row value and a column value in this order.
    #[inline]
    fn multiply(self, m: &dyn Multiplier, row: f32, col: f32) -> f32 {
        match self {
            LutOrder::RowLeft => m.multiply(row, col),
            LutOrder::ColumnLeft => m.multiply(col, row),
        }
    }
}

/// The product table of one [`Multiplier`] over a pair of quantizers: 256
/// rows (the int8 row quantizer `a`) by 256 or 16 columns (the code count
/// of the column quantizer `b`), with `table[qa · columns + qb]` the
/// multiplier's product over the decoded pair in [`LutOrder`] order.
///
/// The row side is the GEMM's `qa` operand and the column side its `b`
/// operand. An int8 table holds 64 Ki entries (256 KiB); an int4 table
/// 4 Ki entries (16 KiB, L1-resident, one cache line per row code).
/// Building a table costs one scalar `multiply` call per entry:
/// microseconds for closed-form cores, tens of milliseconds for gate-level
/// HEAP — paid once at plan-compile time, never at serving time.
#[derive(Clone)]
pub struct ProductLut {
    table: Storage<f32>,
    a: QuantParams,
    b: QuantParams,
    order: LutOrder,
    /// Whether every entry of the `a` zero-point row is exactly `±0.0` —
    /// true for every multiplier in the tree (`multiply(0.0, y)` is a
    /// signed zero). Lets [`lut_gemm`]'s single-row sweeps skip zero-point
    /// row codes: adding `±0.0` is a bitwise no-op on any accumulator other
    /// than `-0.0`, and an accumulator chain seeded without `-0.0` can never
    /// produce one (IEEE round-to-nearest yields `-0.0` only from
    /// `-0.0 + -0.0`).
    zero_a_row: bool,
}

impl ProductLut {
    /// Evaluate `m` over every code pair with the row code as the left
    /// operand ([`LutOrder::RowLeft`]).
    pub fn build(m: &dyn Multiplier, a: QuantParams, b: QuantParams) -> ProductLut {
        ProductLut::build_ordered(m, a, b, LutOrder::RowLeft)
    }

    /// Evaluate `m` over every code pair in `order`.
    ///
    /// Rows are built in parallel (one chunk per `qa` row): every entry is
    /// an independent scalar `multiply` call, so the table is bit-identical
    /// to the sequential build regardless of thread count — gate-level
    /// wirings pay one full gate evaluation per entry here, the dominant
    /// plan-compile cost.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an int8 quantizer.
    pub fn build_ordered(
        m: &dyn Multiplier,
        a: QuantParams,
        b: QuantParams,
        order: LutOrder,
    ) -> ProductLut {
        let mut table = vec![0.0f32; CODES * b.codes()];
        par_map_chunks(&mut table, b.codes(), |qa, row| {
            let av = a.dequantize(qa as u8);
            for (qb, slot) in row.iter_mut().enumerate() {
                *slot = order.multiply(m, av, b.dequantize(qb as u8));
            }
        });
        ProductLut::from_parts(Storage::Owned(table), a, b, order)
    }

    /// Reassemble a table from storage (owned or borrowed from a snapshot
    /// mapping), its quantizer pair and its operand order, without touching
    /// a multiplier. The zero-point-row skip flag is rederived by scanning
    /// the actual row, so it is always consistent with the entries —
    /// including entries a hostile snapshot may have altered.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not an int8 quantizer or `table` does not hold
    /// exactly `256 × b.codes()` entries (snapshot loaders validate section
    /// lengths before constructing storage, so this indicates a caller bug,
    /// not bad input data).
    pub fn from_parts(
        table: Storage<f32>,
        a: QuantParams,
        b: QuantParams,
        order: LutOrder,
    ) -> ProductLut {
        assert_eq!(a.codes(), CODES, "ProductLut rows are int8 codes");
        let cols = b.codes();
        assert_eq!(table.len(), CODES * cols, "ProductLut table must be 256x{cols}");
        let zp = a.zero_point() as usize;
        let zero_a_row = table.as_slice()[zp * cols..(zp + 1) * cols].iter().all(|v| *v == 0.0);
        ProductLut { table, a, b, order, zero_a_row }
    }

    /// The product for code pair `(qa, qb)` — bit-identical to the scalar
    /// multiplier over the decoded pair, in the table's order (`qb` taken
    /// modulo the column count, like every kernel path).
    #[inline]
    pub fn product(&self, qa: u8, qb: u8) -> f32 {
        self.table.as_slice()[qa as usize * self.columns() + (qb & self.b.max_code) as usize]
    }

    /// The row quantizer (always int8).
    pub fn a_params(&self) -> QuantParams {
        self.a
    }

    /// The column quantizer (int8 or int4).
    pub fn b_params(&self) -> QuantParams {
        self.b
    }

    /// Which code is the multiplier's left operand.
    pub fn order(&self) -> LutOrder {
        self.order
    }

    /// Entries per row: [`CODES`] (int8) or [`CODES4`] (int4).
    #[inline]
    pub fn columns(&self) -> usize {
        self.b.codes()
    }

    /// The raw table (`[qa · columns + qb]` layout), for kernels.
    #[inline]
    pub fn table(&self) -> &[f32] {
        self.table.as_slice()
    }

    /// Whether the table entries borrow a mapped snapshot (vs heap-owned).
    pub fn is_mapped(&self) -> bool {
        self.table.is_mapped()
    }

    /// The row code single-row sweeps may skip, if its products are all
    /// `±0.0`.
    fn skip(&self) -> Option<u8> {
        self.zero_a_row.then_some(self.a.zero_point())
    }
}

impl std::fmt::Debug for ProductLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProductLut")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("order", &self.order)
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

/// Table-lookup GEMM over code matrices:
/// `acc[r·acc_stride + j] += lut.product(qa[r·k + kk], b[kk·tile + j])` for
/// every output row `r < rows` and column `j < tile`, accumulated with `kk`
/// ascending per element — the batched GEMM's order, so results are
/// bit-identical to [`lut_gemm_reference`] (and therefore to the scalar
/// multiplier over dequantized codes).
///
/// `qa` holds row codes (u8) and `b` column codes: u8 for an int8 table,
/// the low nibble for an int4 table (taken modulo 16 on every path). Output
/// rows live at stride `acc_stride ≥ tile` inside `acc` (serving engines
/// accumulate straight into strided conv output planes); bytes between rows
/// are untouched.
///
/// Dispatches at runtime to AVX-512 / AVX2 bodies when available — hardware
/// gathers over an int8 table, in-register shuffles over an int4 table
/// (AVX-512 `vpermps` over a zmm-resident row; AVX2 two ymm halves +
/// `vpermps` + blend) — falling back to [`lut_gemm_scalar`]; every path is
/// bit-identical.
///
/// Single-row sweeps (every row of an int4 table, the odd rows of an int8
/// one) additionally **skip** row codes at the `a` zero point when that
/// table row is exactly `±0.0` (it is for every multiplier in the tree) —
/// post-ReLU activations hit the zero code constantly, so this drops a
/// large fraction of MACs. The skip is bitwise neutral: adding `±0.0`
/// never changes an accumulator other than `-0.0`, no accumulation chain
/// can produce `-0.0` under round-to-nearest, and `-0.0` *seeds* are
/// rejected in debug builds.
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
    #[cfg(target_arch = "x86_64")]
    {
        let level = gather_level();
        if level != GatherLevel::Scalar {
            check_gemm(qa, rows, k, b, tile, acc, acc_stride);
            // SAFETY: shapes checked just above; `gather_level` probed the
            // CPU for `level`.
            unsafe { gemm_simd(level, lut, qa, rows, k, b, tile, acc, acc_stride) };
            return;
        }
    }
    lut_gemm_scalar(lut, qa, rows, k, b, tile, acc, acc_stride);
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
    let (t, skip) = (lut.table(), lut.skip());
    if lut.columns() == CODES {
        gemm_scalar::<CODES>(t, qa, rows, k, b, tile, acc, acc_stride, skip);
    } else {
        gemm_scalar::<CODES4>(t, qa, rows, k, b, tile, acc, acc_stride, skip);
    }
}

/// The semantic ground truth [`lut_gemm`] is tested against: the same loop
/// with every product computed by the scalar multiplier on dequantized
/// codes, in `order`, instead of looked up in a table.
///
/// # Panics
///
/// Panics as [`lut_gemm`] does.
#[allow(clippy::too_many_arguments)]
pub fn lut_gemm_reference(
    m: &dyn Multiplier,
    a_params: QuantParams,
    b_params: QuantParams,
    order: LutOrder,
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
                *o += order.multiply(m, av, b_params.dequantize(qb));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel bodies.
//
// Every body computes, per output element, the identical ascending-k sequence
// of f32 adds over identical table entries; blocking, lane width, and the
// choice between gather and shuffle only change how *independent* elements
// interleave, so all bodies are bit-identical (property-tested in
// tests/quantized_conformance.rs). Lookups are structurally in bounds:
// `qa · COLS + (qb mod COLS) < 256 · COLS`, the table's length; taking a
// `u8` code modulo 256 is free.
// ---------------------------------------------------------------------------

/// `arow[j] += product(qa_row[ki], b[ki·tile + j])` for each `ki` of `ks`,
/// one k-step at a time over the whole row — every body's leftover k-steps
/// (a row block's `k` tail, or the fewer than four not-skipped steps that
/// end a single-row sweep).
#[inline(always)]
fn add_steps<const COLS: usize>(
    table: &[f32],
    qa_row: &[u8],
    ks: impl IntoIterator<Item = usize>,
    b: &[u8],
    tile: usize,
    arow: &mut [f32],
) {
    for ki in ks {
        let base = qa_row[ki] as usize * COLS;
        let row = &table[base..base + COLS];
        for (o, &q) in arow.iter_mut().zip(&b[ki * tile..(ki + 1) * tile]) {
            *o += row[q as usize & (COLS - 1)];
        }
    }
}

/// `arow[j] += ` the four products of k-steps `ks` (ascending), for columns
/// `from..tile` — the scalar single-row block and every vector body's
/// ragged column tail.
#[inline(always)]
fn add_block<const COLS: usize>(
    table: &[f32],
    qa_row: &[u8],
    ks: &[usize; 4],
    b: &[u8],
    tile: usize,
    arow: &mut [f32],
    from: usize,
) {
    let base = ks.map(|ki| qa_row[ki] as usize * COLS);
    for (j, o) in arow.iter_mut().enumerate().skip(from) {
        let mut a = *o;
        for (&ki, &rb) in ks.iter().zip(&base) {
            a += table[rb + (b[ki * tile + j] as usize & (COLS - 1))];
        }
        *o = a;
    }
}

/// Collect up to four not-skipped `k` indices starting at `*kk` (advancing
/// it); returns how many were found. The zero-point skip is bit-exact: the
/// skipped products are exact `±0.0` (guaranteed by the caller via
/// [`ProductLut::from_parts`]'s zero-row scan), and adding `±0.0` never
/// changes an accumulator that is not `-0.0` — which no chain produces and
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

/// Scalar body for a `COLS`-wide table: 4 output rows × 4 k-steps
/// register-blocked, so each accumulator round-trips memory once per four
/// products and the four lookup streams overlap in the load pipeline; the
/// remaining rows sweep singly, honoring `skip` (see [`next_k_block`]).
#[allow(clippy::too_many_arguments)]
fn gemm_scalar<const COLS: usize>(
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
                    *slot = qa[(r + c) * k + kk + i] as usize * COLS;
                }
            }
            for j in 0..tile {
                let q: [usize; 4] =
                    std::array::from_fn(|i| b[(kk + i) * tile + j] as usize & (COLS - 1));
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
        for row in r..r + 4 {
            let arow = &mut acc[row * acc_stride..row * acc_stride + tile];
            add_steps::<COLS>(table, &qa[row * k..(row + 1) * k], kk..k, b, tile, arow);
        }
        r += 4;
    }
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                add_steps::<COLS>(table, qa_row, ks[..cnt].iter().copied(), b, tile, arow);
                break;
            }
            add_block::<COLS>(table, qa_row, &ks, b, tile, arow, 0);
        }
        r += 1;
    }
}

/// Which vector tier the CPU supports (probed once).
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

/// The vector body for `level` at `lut`'s width: gathers over an int8
/// table, shuffles over an int4 one.
///
/// # Safety
///
/// The CPU must support `level` (not [`GatherLevel::Scalar`]), and the
/// shapes must satisfy [`check_gemm`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_simd(
    level: GatherLevel,
    lut: &ProductLut,
    qa: &[u8],
    rows: usize,
    k: usize,
    b: &[u8],
    tile: usize,
    acc: &mut [f32],
    acc_stride: usize,
) {
    let (t, skip) = (lut.table(), lut.skip());
    match (level, lut.columns() == CODES) {
        (GatherLevel::Avx512, true) => {
            gather_avx512(t, qa, rows, k, b, tile, acc, acc_stride, skip)
        }
        (GatherLevel::Avx512, false) => {
            shuffle_avx512(t, qa, rows, k, b, tile, acc, acc_stride, skip)
        }
        (GatherLevel::Avx2, true) => gather_avx2(t, qa, rows, k, b, tile, acc, acc_stride, skip),
        (GatherLevel::Avx2, false) => shuffle_avx2(t, qa, rows, k, b, tile, acc, acc_stride, skip),
        (GatherLevel::Scalar, _) => unreachable!("the scalar tier has no vector body"),
    }
}

/// AVX2 int8 body: 2 output rows × 4 k-steps, 8-lane `vgatherdps` columns;
/// single-row sweeps honor `skip` (see [`next_k_block`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_avx2(
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
            if j < tile {
                let ks = [kk, kk + 1, kk + 2, kk + 3];
                for row in r..r + 2 {
                    let arow = &mut acc[row * acc_stride..row * acc_stride + tile];
                    add_block::<CODES>(table, &qa[row * k..(row + 1) * k], &ks, b, tile, arow, j);
                }
            }
            kk += 4;
        }
        for row in r..r + 2 {
            let arow = &mut acc[row * acc_stride..row * acc_stride + tile];
            add_steps::<CODES>(table, &qa[row * k..(row + 1) * k], kk..k, b, tile, arow);
        }
        r += 2;
    }
    // Odd final row (and the whole GEMM when `rows == 1` — every dense
    // layer): same 4-step k blocks over not-skipped steps, single
    // accumulator row.
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                add_steps::<CODES>(table, qa_row, ks[..cnt].iter().copied(), b, tile, arow);
                break;
            }
            let bv: [__m256i; 4] =
                std::array::from_fn(|i| _mm256_set1_epi32((qa_row[ks[i]] as i32) << 8));
            let mut j = 0;
            while j + 8 <= tile {
                let mut a0 = _mm256_loadu_ps(arow.as_ptr().add(j));
                for i in 0..4 {
                    let q = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        b.as_ptr().add(ks[i] * tile + j) as *const __m128i
                    ));
                    let g = _mm256_i32gather_ps::<4>(tp, _mm256_add_epi32(q, bv[i]));
                    a0 = _mm256_add_ps(a0, g);
                }
                _mm256_storeu_ps(arow.as_mut_ptr().add(j), a0);
                j += 8;
            }
            add_block::<CODES>(table, qa_row, &ks, b, tile, arow, j);
        }
        r += 1;
    }
}

/// AVX-512 int8 body: 2 output rows × 4 k-steps, 16-lane gather columns;
/// single-row sweeps honor `skip` (see [`next_k_block`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_avx512(
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
            if j < tile {
                let ks = [kk, kk + 1, kk + 2, kk + 3];
                for row in r..r + 2 {
                    let arow = &mut acc[row * acc_stride..row * acc_stride + tile];
                    add_block::<CODES>(table, &qa[row * k..(row + 1) * k], &ks, b, tile, arow, j);
                }
            }
            kk += 4;
        }
        for row in r..r + 2 {
            let arow = &mut acc[row * acc_stride..row * acc_stride + tile];
            add_steps::<CODES>(table, &qa[row * k..(row + 1) * k], kk..k, b, tile, arow);
        }
        r += 2;
    }
    // Odd final row (and the whole GEMM when `rows == 1` — every dense
    // layer): same 4-step k blocks over not-skipped steps, single
    // accumulator row.
    while r < rows {
        let qa_row = &qa[r * k..(r + 1) * k];
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                add_steps::<CODES>(table, qa_row, ks[..cnt].iter().copied(), b, tile, arow);
                break;
            }
            let bv: [__m512i; 4] =
                std::array::from_fn(|i| _mm512_set1_epi32((qa_row[ks[i]] as i32) << 8));
            let mut j = 0;
            while j + 16 <= tile {
                let mut a0 = _mm512_loadu_ps(arow.as_ptr().add(j));
                for i in 0..4 {
                    let q = _mm512_cvtepu8_epi32(_mm_loadu_si128(
                        b.as_ptr().add(ks[i] * tile + j) as *const __m128i
                    ));
                    let g = _mm512_i32gather_ps::<4>(_mm512_add_epi32(q, bv[i]), tp);
                    a0 = _mm512_add_ps(a0, g);
                }
                _mm512_storeu_ps(arow.as_mut_ptr().add(j), a0);
                j += 16;
            }
            add_block::<CODES>(table, qa_row, &ks, b, tile, arow, j);
        }
        r += 1;
    }
}

/// AVX-512 int4 body: every row sweeps singly (it owns its accumulators
/// and its zero-code skip); each row code's 16-entry table row is loaded
/// once into a zmm register, and 16 column codes per step pick their
/// products with `vpermps` (`_mm512_permutexvar_ps` indexes modulo 16,
/// matching the scalar nibble mask). No gathers anywhere in the loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn shuffle_avx512(
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
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                add_steps::<CODES4>(table, qa_row, ks[..cnt].iter().copied(), qw, tile, arow);
                break;
            }
            let rowv: [__m512; 4] = std::array::from_fn(|i| {
                _mm512_loadu_ps(table.as_ptr().add(qa_row[ks[i]] as usize * CODES4))
            });
            let mut j = 0;
            while j + 16 <= tile {
                let mut a0 = _mm512_loadu_ps(arow.as_ptr().add(j));
                for i in 0..4 {
                    let idx = _mm512_cvtepu8_epi32(_mm_loadu_si128(
                        qw.as_ptr().add(ks[i] * tile + j) as *const __m128i,
                    ));
                    a0 = _mm512_add_ps(a0, _mm512_permutexvar_ps(idx, rowv[i]));
                }
                _mm512_storeu_ps(arow.as_mut_ptr().add(j), a0);
                j += 16;
            }
            add_block::<CODES4>(table, qa_row, &ks, qw, tile, arow, j);
        }
    }
}

/// AVX2 int4 body: as [`shuffle_avx512`], with each table row in two ymm
/// halves (codes 0–7 and 8–15); `vpermps` picks from both and a blend on
/// index bit 3 (shifted to the sign position) selects the half — still no
/// gathers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn shuffle_avx2(
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
        let arow = &mut acc[r * acc_stride..r * acc_stride + tile];
        let mut kk = 0usize;
        loop {
            let mut ks = [0usize; 4];
            let cnt = next_k_block(qa_row, skip, &mut kk, &mut ks);
            if cnt < 4 {
                add_steps::<CODES4>(table, qa_row, ks[..cnt].iter().copied(), qw, tile, arow);
                break;
            }
            let row = |i: usize| table.as_ptr().add(qa_row[ks[i]] as usize * CODES4);
            let lo: [__m256; 4] = std::array::from_fn(|i| _mm256_loadu_ps(row(i)));
            let hi: [__m256; 4] = std::array::from_fn(|i| _mm256_loadu_ps(row(i).add(8)));
            let mut j = 0;
            while j + 8 <= tile {
                let mut a0 = _mm256_loadu_ps(arow.as_ptr().add(j));
                for i in 0..4 {
                    let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        qw.as_ptr().add(ks[i] * tile + j) as *const __m128i,
                    ));
                    let pick_lo = _mm256_permutevar8x32_ps(lo[i], idx);
                    let pick_hi = _mm256_permutevar8x32_ps(hi[i], idx);
                    let sel = _mm256_castsi256_ps(_mm256_slli_epi32(idx, 28));
                    a0 = _mm256_add_ps(a0, _mm256_blendv_ps(pick_lo, pick_hi, sel));
                }
                _mm256_storeu_ps(arow.as_mut_ptr().add(j), a0);
                j += 8;
            }
            add_block::<CODES4>(table, qa_row, &ks, qw, tile, arow, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMultiplier;
    use rand::{Rng, SeedableRng};

    #[test]
    fn from_range_includes_zero_and_round_trips_grid() {
        let q = QuantParams::from_range(-1.0, 3.0);
        assert!(q.scale() > 0.0);
        assert_eq!(q.codes(), CODES);
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
    fn from_parts_rejects_zero_points_off_the_grid() {
        assert!(QuantParams::from_parts(0.5, 255, CODES).is_some());
        assert!(QuantParams::from_parts(0.5, 15, CODES4).is_some());
        assert!(QuantParams::from_parts(0.5, 16, CODES4).is_none());
        assert!(QuantParams::from_parts(0.0, 0, CODES).is_none());
        assert!(QuantParams::from_parts(f32::NAN, 0, CODES4).is_none());
        let q = QuantParams::from_range_codes(-1.0, 3.0, CODES4);
        assert_eq!(QuantParams::from_parts(q.scale(), q.zero_point(), CODES4), Some(q));
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
        assert_eq!(lut.order(), LutOrder::RowLeft);
        assert_eq!(lut.columns(), CODES);
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
        let q = QuantParams::from_range_codes(-1.0, 3.0, CODES4);
        assert!(q.scale() > 0.0);
        assert_eq!(q.codes(), CODES4);
        assert_eq!(q.dequantize(q.zero_point()), 0.0);
        for code in 0..CODES4 as u8 {
            assert_eq!(q.quantize(q.dequantize(code)), code, "code {code}");
        }
        // Codes dequantize modulo 16, like every kernel path.
        assert_eq!(q.dequantize(0x35).to_bits(), q.dequantize(0x5).to_bits());
        // Saturation + NaN behaviour mirrors the int8 quantizer.
        assert_eq!(q.quantize(-100.0), 0);
        assert_eq!(q.quantize(100.0), 15);
        assert_eq!(q.quantize(f32::NAN), q.zero_point());
        for (lo, hi) in [(0.0, 0.0), (f32::NAN, 1.0), (0.0, f32::INFINITY)] {
            let d = QuantParams::from_range_codes(lo, hi, CODES4);
            assert!(d.scale().is_finite() && d.scale() > 0.0, "({lo}, {hi}) -> {d:?}");
        }
        let pos = QuantParams::from_range_codes(0.5, 4.0, CODES4);
        assert_eq!(pos.zero_point(), 0, "range widened down to zero");
        let neg = QuantParams::from_range_codes(-4.0, -0.5, CODES4);
        assert_eq!(neg.zero_point(), 15, "range widened up to zero");
        // Same scale and zero point, different width: different quantizers.
        assert_ne!(QuantParams::from_parts(1.0, 0, CODES), QuantParams::from_parts(1.0, 0, CODES4));
    }

    #[test]
    fn int4_lut_stores_exact_products_in_both_operand_orders() {
        let act = QuantParams::from_range(-2.0, 2.0);
        let w = QuantParams::from_range_codes(-1.5, 0.5, CODES4);
        for order in [LutOrder::ColumnLeft, LutOrder::RowLeft] {
            let lut = ProductLut::build_ordered(&ExactMultiplier, act, w, order);
            for (qa, qw) in [(0u8, 0u8), (17, 9), (255, 15), (act.zero_point(), 3)] {
                let (x, y) = match order {
                    LutOrder::ColumnLeft => (w.dequantize(qw), act.dequantize(qa)),
                    LutOrder::RowLeft => (act.dequantize(qa), w.dequantize(qw)),
                };
                assert_eq!(lut.product(qa, qw).to_bits(), (x * y).to_bits());
            }
            assert_eq!(lut.a_params(), act);
            assert_eq!(lut.b_params(), w);
            assert_eq!(lut.order(), order);
            assert_eq!(lut.columns(), CODES4);
            assert_eq!(lut.table().len(), CODES * CODES4);
        }
    }

    #[test]
    fn int4_lut_gemm_matches_reference_on_all_paths() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let act = QuantParams::from_range(-1.0, 1.0);
        let w = QuantParams::from_range_codes(-1.0, 1.0, CODES4);
        let m = ExactMultiplier;
        for order in [LutOrder::ColumnLeft, LutOrder::RowLeft] {
            let lut = ProductLut::build_ordered(&m, act, w, order);
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
                lut_gemm_reference(&m, act, w, order, &qa, rows, k, &qw, tile, &mut want, stride);
                let mut got = seed.clone();
                lut_gemm(&lut, &qa, rows, k, &qw, tile, &mut got, stride);
                let mut got_s = seed.clone();
                lut_gemm_scalar(&lut, &qa, rows, k, &qw, tile, &mut got_s, stride);
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
    fn int4_lut_gemm_ignores_high_weight_nibble() {
        let act = QuantParams::from_range(-1.0, 1.0);
        let w = QuantParams::from_range_codes(-1.0, 1.0, CODES4);
        let lut = ProductLut::build(&ExactMultiplier, act, w);
        let qa = [200u8, 3, 77];
        let qw_lo: Vec<u8> = (0..3 * 19).map(|i| (i % 16) as u8).collect();
        let qw_hi: Vec<u8> = qw_lo.iter().map(|&q| q | 0xA0).collect();
        let mut a = vec![0.0f32; 19];
        let mut b = vec![0.0f32; 19];
        lut_gemm(&lut, &qa, 1, 3, &qw_lo, 19, &mut a, 19);
        lut_gemm(&lut, &qa, 1, 3, &qw_hi, 19, &mut b, 19);
        for i in 0..19 {
            assert_eq!(a[i].to_bits(), b[i].to_bits(), "[{i}]");
        }
    }

    #[test]
    #[should_panic(expected = "acc too small")]
    fn int4_lut_gemm_rejects_short_acc() {
        let lut = ProductLut::build(
            &ExactMultiplier,
            QuantParams::from_range(0.0, 1.0),
            QuantParams::from_range_codes(0.0, 1.0, CODES4),
        );
        let mut acc = [0.0f32; 5];
        lut_gemm(&lut, &[0, 0], 2, 1, &[0, 0, 0], 3, &mut acc, 3);
    }

    /// `lut_gemm` runs only the best tier the CPU has; this runs every
    /// vector tier the CPU supports (AVX2 on an AVX-512 host too) against
    /// the scalar body, at both widths, with zero-point row codes planted so
    /// the single-row skip runs.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn every_supported_vector_tier_matches_the_scalar_body() {
        let mut levels = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(GatherLevel::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            levels.push(GatherLevel::Avx512);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let m = crate::MultiplierKind::AxFpm.build();
        let act = QuantParams::from_range(-1.0, 2.0);
        for b in
            [QuantParams::from_range(-0.5, 1.0), QuantParams::from_range_codes(-0.5, 1.0, CODES4)]
        {
            let lut = ProductLut::build(&*m, act, b);
            for (rows, k, tile) in [(1, 9, 7), (1, 13, 33), (2, 8, 16), (3, 11, 17), (5, 6, 31)] {
                let stride = tile + 2;
                let mut qa: Vec<u8> = (0..rows * k).map(|_| rng.gen()).collect();
                for slot in qa.iter_mut().step_by(3) {
                    *slot = act.zero_point();
                }
                let qb: Vec<u8> = (0..k * tile).map(|_| rng.gen()).collect();
                let seed: Vec<f32> =
                    (0..rows * stride).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                let mut want = seed.clone();
                lut_gemm_scalar(&lut, &qa, rows, k, &qb, tile, &mut want, stride);
                for &level in &levels {
                    let mut got = seed.clone();
                    // SAFETY: `level` was just detected; shapes are valid.
                    unsafe { gemm_simd(level, &lut, &qa, rows, k, &qb, tile, &mut got, stride) };
                    for i in 0..want.len() {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{} cols {rows}x{k}x{tile} [{i}]",
                            lut.columns()
                        );
                    }
                }
            }
        }
    }
}
