//! Lane-parallel kernels for the closed-form FPM hot paths.
//!
//! The three multiplier cores with proven closed forms — the canonical AMA5
//! array (`prod = s_a << 24`), the exact array (`prod = s_a · s_b`), and the
//! Bfloat16 truncating multiplier — reduce each product to a handful of
//! integer bit-field operations. This module executes those closed forms over
//! `LANES`-wide blocks as **whole-block bit-field pipelines**: batch
//! decompose, lane-wise sign/exponent arithmetic, and a branchless
//! clamp/flush-to-zero select, written so the stable autovectorizer lowers
//! each block to SIMD.
//!
//! # Architecture
//!
//! * **One scalar lane function per core and row class** (`ama5_lane`,
//!   `exact_lane`, …) is the single source of truth: the block loops and
//!   the slow-path sweeps compute exactly the expression the lane function
//!   defines, so the paths cannot diverge.
//! * **Row classification drives dispatch.** A slice is scanned once into a
//!   [`RowClass`]: `Normal` rows run the pure closed-form pipeline, `Zeros`
//!   rows run the same pipeline with a flush-to-zero exponent select (a
//!   normal × zero/denormal product is exactly `±0.0`, which the shared
//!   clamp produces on a non-positive exponent), and `Special` rows (any
//!   Inf/NaN) stay on the caller's per-element slow path so IEEE
//!   special-value semantics are decided by the one shared implementation
//!   (`FloatMultiplier`'s datapath), never re-derived in lane code.
//! * **`LANES` = 8**: one AVX2 register of `f32`/`u32` lanes, and a block
//!   width the autovectorizer reliably unrolls on 128-bit targets too.
//!
//! Every kernel is **bit-identical** to the scalar datapath it shortcuts
//! (`FloatMultiplier::multiply` / `BfloatMultiplier::multiply`): enforced by
//! unit tests here, the property suites in `crates/arith/tests` and
//! `crates/nn/tests`, and the checked-in golden vectors.

use crate::fpm::Binary32Parts;

/// Lanes per block: one AVX2 register of `f32`/`u32`.
pub const LANES: usize = 8;

/// Classification of one right-hand-side row for the closed-form kernels.
///
/// Produced by [`classify_row`] — the one classification every
/// [`crate::BatchKernel`] accepts — and consumed by the class-matched sweeps
/// of the batch kernels. Callers amortize one classification across several
/// sweeps of a shared row (e.g. a GEMM sweeping one B tile with many A
/// operands). The native and Bfloat16 kernels treat `Zeros` like `Normal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RowClass {
    /// Every element is a normal number: the branchless closed-form pipeline.
    Normal,
    /// Zeros/denormals present but no Inf/NaN: the closed-form pipeline with
    /// a flush-to-zero exponent select.
    Zeros,
    /// Inf/NaN present: per-element classification via the shared slow path.
    Special,
}

impl RowClass {
    /// `true` if a row of class `actual` may be swept with this class's
    /// loop. Classes are ordered `Normal < Zeros < Special` and every class
    /// covers the ones below it: the zeros sweep runs a flush select that
    /// simply never fires on an all-normal row, and the special sweep
    /// re-classifies per element — so sweeping with a *higher* class than
    /// necessary is bit-identical, merely slower. Callers may therefore pass
    /// conservative classes (e.g. one plane-level class for every patch row
    /// of a convolution).
    #[inline]
    pub fn covers(self, actual: RowClass) -> bool {
        self >= actual
    }
}

/// Scan a row once and classify it for the closed-form kernels.
///
/// # Examples
///
/// ```
/// use da_arith::simd::{classify_row, RowClass};
///
/// assert_eq!(classify_row(&[1.0, -2.5]), RowClass::Normal);
/// assert_eq!(classify_row(&[1.0, 0.0]), RowClass::Zeros);
/// assert_eq!(classify_row(&[1.0, f32::NAN]), RowClass::Special);
/// assert_eq!(classify_row(&[]), RowClass::Normal);
/// ```
#[inline]
pub fn classify_row(b: &[f32]) -> RowClass {
    // Branchless flag accumulation: a single pass the autovectorizer lowers
    // to SIMD compares + ORs.
    let mut zeros = 0u32;
    let mut special = 0u32;
    for &y in b {
        let e = y.to_bits() & EXP_FIELD;
        zeros |= u32::from(e == 0);
        special |= u32::from(e == EXP_FIELD);
    }
    if special != 0 {
        RowClass::Special
    } else if zeros != 0 {
        RowClass::Zeros
    } else {
        RowClass::Normal
    }
}

/// `true` if any element of `a` or `b` is Inf/NaN (pairwise-kernel guard).
#[inline]
pub fn pair_has_special(a: &[f32], b: &[f32]) -> bool {
    let mut special = 0u32;
    for &x in a {
        special |= u32::from(x.to_bits() & EXP_FIELD == EXP_FIELD);
    }
    for &y in b {
        special |= u32::from(y.to_bits() & EXP_FIELD == EXP_FIELD);
    }
    special != 0
}

/// The biased-exponent field mask of a packed binary32.
const EXP_FIELD: u32 = 0x7F80_0000;
/// The fraction field mask.
const FRAC_MASK: u32 = 0x7F_FFFF;
/// The sign bit.
const SIGN_BIT: u32 = 0x8000_0000;
/// Packed positive infinity (the overflow saturation value, sans sign).
const INF_BITS: u32 = 0x7F80_0000;

// ---------------------------------------------------------------------------
// Scalar lane functions: the single source of truth for every block kernel
// and slow-path sweep below.
// ---------------------------------------------------------------------------

/// Clamp-specialization modes for [`pack_lane_m`]: which of the output
/// stage's two clamps can actually fire given what the caller knows about
/// the exponent range. The shared operand's exponent bounds the product
/// exponent (see the dispatch in the axpy kernels), so most sweeps need at
/// most one packed compare + select instead of two.
const CLAMP_LO: u8 = 0b01;
const CLAMP_HI: u8 = 0b10;
const CLAMP_BOTH: u8 = 0b11;
/// No clamp reachable (AMA5 with `e_a = 126`: `exp = e_b ∈ [1, 254]`).
const CLAMP_NONE: u8 = 0b00;

/// Branch-free re-expression of the datapath's output stage
/// (`fpm::pack_clamped`): overflow (`exp >= 0xFF`) saturates to signed
/// infinity, underflow (`exp <= 0`) flushes to signed zero. Select-shaped
/// (every arm a plain value) so the autovectorizer lowers it to packed
/// compares + selects; bit-identical to the branching form (unit-tested
/// below). `MODE` statically drops clamps the caller has proven
/// unreachable — the caller must uphold that proof, or results diverge
/// from [`pack_lane`].
#[inline(always)]
fn pack_lane_m<const MODE: u8>(sign_bit: u32, exp: i32, frac: u32) -> u32 {
    let body = sign_bit | ((exp as u32) << 23) | frac;
    let r = if MODE & CLAMP_LO != 0 && exp <= 0 { sign_bit } else { body };
    if MODE & CLAMP_HI != 0 && exp >= 0xFF {
        sign_bit | INF_BITS
    } else {
        r
    }
}

/// [`pack_lane_m`] with both clamps armed: the unconditional form, used by
/// scalar tails, slow paths, and as the reference the specializations are
/// tested against.
#[inline(always)]
fn pack_lane(sign_bit: u32, exp: i32, frac: u32) -> u32 {
    pack_lane_m::<CLAMP_BOTH>(sign_bit, exp, frac)
}

/// One canonical-AMA5 product of a fixed normal `a` (fields pre-extracted):
/// `1.f_a · 2^(e_a + e_b - 126)` (the AMA5 array's `s_a << 24`
/// significand product, pinned by `array.rs`'s
/// `ama5_array_matches_closed_form`, always normalizes). `MODE` arms only
/// the reachable clamps; `ZSEL` adds the flush-to-zero select for zero/denormal `b`
/// (forcing a non-positive exponent makes the clamp produce exactly the
/// `±0.0` the scalar slow path packs).
#[inline(always)]
fn ama5_lane_m<const MODE: u8, const ZSEL: bool>(
    sign_a: u32,
    fa: u32,
    ea_m126: i32,
    bbits: u32,
) -> u32 {
    let bexp = ((bbits >> 23) & 0xFF) as i32;
    let sign = (sign_a ^ bbits) & SIGN_BIT;
    let exp = if ZSEL && bexp == 0 { 0 } else { ea_m126 + bexp };
    pack_lane_m::<MODE>(sign, exp, fa)
}

/// [`ama5_lane_m`] with every clamp armed and no zero select: the
/// unconditional normal-row form, the reference the clamp specializations
/// are tested against.
#[cfg_attr(not(test), allow(dead_code))]
#[inline(always)]
pub(crate) fn ama5_lane(sign_a: u32, fa: u32, ea_m126: i32, bbits: u32) -> u32 {
    ama5_lane_m::<CLAMP_BOTH, false>(sign_a, fa, ea_m126, bbits)
}

/// [`ama5_lane`] with the flush-to-zero select (zero-bearing rows).
#[inline(always)]
pub(crate) fn ama5_lane_zeros(sign_a: u32, fa: u32, ea_m126: i32, bbits: u32) -> u32 {
    ama5_lane_m::<CLAMP_BOTH, true>(sign_a, fa, ea_m126, bbits)
}

/// One exact-core product of a fixed normal `a` (significand pre-widened):
/// the 48-bit product `s_a · s_b`, with the normalization bit (bit 47) as a
/// select — the same two cases `FloatMultiplier::finish` branches on,
/// expressed branch-free with constant shifts (per-lane variable shifts do
/// not vectorize on baseline x86-64). `MODE`/`ZSEL` as in [`ama5_lane_m`].
#[inline(always)]
fn exact_lane_m<const MODE: u8, const ZSEL: bool>(
    sa: u64,
    sign_a: u32,
    ea_m127: i32,
    bbits: u32,
) -> u32 {
    let sb = ((1u32 << 23) | (bbits & FRAC_MASK)) as u64;
    let prod = sa * sb;
    let norm = (prod >> 47) != 0;
    let sign = (sign_a ^ bbits) & SIGN_BIT;
    let bexp = ((bbits >> 23) & 0xFF) as i32;
    let exp = if ZSEL && bexp == 0 { 0 } else { ea_m127 + bexp + i32::from(norm) };
    let f_lo = ((prod >> 23) & FRAC_MASK as u64) as u32;
    let f_hi = ((prod >> 24) & FRAC_MASK as u64) as u32;
    let frac = if norm { f_hi } else { f_lo };
    pack_lane_m::<MODE>(sign, exp, frac)
}

/// [`exact_lane_m`] with every clamp armed and no zero select: the
/// reference the clamp specializations are tested against.
#[cfg_attr(not(test), allow(dead_code))]
#[inline(always)]
pub(crate) fn exact_lane(sa: u64, sign_a: u32, ea_m127: i32, bbits: u32) -> u32 {
    exact_lane_m::<CLAMP_BOTH, false>(sa, sign_a, ea_m127, bbits)
}

/// [`exact_lane`] with the flush-to-zero select (zero-bearing rows).
#[inline(always)]
pub(crate) fn exact_lane_zeros(sa: u64, sign_a: u32, ea_m127: i32, bbits: u32) -> u32 {
    exact_lane_m::<CLAMP_BOTH, true>(sa, sign_a, ea_m127, bbits)
}

/// One elementwise canonical-AMA5 product of two finite operands (either may
/// be zero/denormal; neither Inf/NaN): the fraction comes from `a`, the
/// normalization always fires, and a zero/denormal on either side flushes.
#[inline(always)]
pub(crate) fn ama5_pair_lane(abits: u32, bbits: u32) -> u32 {
    let aexp = ((abits >> 23) & 0xFF) as i32;
    let bexp = ((bbits >> 23) & 0xFF) as i32;
    let sign = (abits ^ bbits) & SIGN_BIT;
    let exp = if aexp == 0 || bexp == 0 { 0 } else { aexp + bexp - 126 };
    pack_lane(sign, exp, abits & FRAC_MASK)
}

/// One elementwise exact-core product of two finite operands (either may be
/// zero/denormal; neither Inf/NaN).
#[inline(always)]
pub(crate) fn exact_pair_lane(abits: u32, bbits: u32) -> u32 {
    let sa = ((1u32 << 23) | (abits & FRAC_MASK)) as u64;
    let sb = ((1u32 << 23) | (bbits & FRAC_MASK)) as u64;
    let prod = sa * sb;
    let norm = (prod >> 47) != 0;
    let aexp = ((abits >> 23) & 0xFF) as i32;
    let bexp = ((bbits >> 23) & 0xFF) as i32;
    let sign = (abits ^ bbits) & SIGN_BIT;
    let exp = if aexp == 0 || bexp == 0 { 0 } else { aexp + bexp - 127 + i32::from(norm) };
    let f_lo = ((prod >> 23) & FRAC_MASK as u64) as u32;
    let f_hi = ((prod >> 24) & FRAC_MASK as u64) as u32;
    let frac = if norm { f_hi } else { f_lo };
    pack_lane(sign, exp, frac)
}

/// Truncate to bfloat16 precision (bit mask; shared with `crate::bfloat`).
#[inline(always)]
fn bf16_lane(x: f32) -> f32 {
    f32::from_bits(x.to_bits() & 0xFFFF_0000)
}

/// Operand-order-stable accumulate: `acc + x` with both-NaN payload
/// propagation pinned to **the incoming term `x`**.
///
/// IEEE-754 addition is bitwise commutative except for one case — **both**
/// operands NaN, where x86 hardware returns the *first* `addss` operand's
/// payload — and neither LLVM IR's `fadd` nor Rust's `+` specifies the
/// operand order the backend must emit. Two compilations of the *same*
/// accumulate loop can then disagree: observed under rustc 1.95, where the
/// autovectorizer's `addps` keeps the accumulator's NaN while the scalar
/// loop's `addss xmm_product, [acc]` (the natural lowering when the fresh
/// product is hot in a register) keeps the product's. This helper pins the
/// choice in source — the incoming product's payload wins, matching the
/// scalar reference loops' observed lowering in every profile — so the
/// batched kernels cannot drift from the references however either side is
/// compiled. (A one-NaN or no-NaN add is bitwise order-independent, and the
/// short-circuit never sees signaling NaNs: nothing in the datapath emits
/// them.)
#[inline(always)]
pub fn nan_stable_add(acc: f32, x: f32) -> f32 {
    // Written select-shaped (sum computed unconditionally) so the compiler
    // lowers it to compare + blend and the loops around it still vectorize.
    let sum = acc + x;
    if x.is_nan() {
        x
    } else {
        sum
    }
}

// ---------------------------------------------------------------------------
// Block kernels: LANES-wide loops the autovectorizer lowers to SIMD.
// ---------------------------------------------------------------------------

/// Expand a shared normal operand into the fields the AMA5 lanes consume.
#[inline(always)]
pub(crate) fn ama5_fields(pa: Binary32Parts) -> (u32, u32, i32) {
    (pa.sign << 31, pa.fraction, pa.exponent as i32 - 126)
}

/// Expand a shared normal operand into the fields the exact lanes consume.
#[inline(always)]
pub(crate) fn exact_fields(pa: Binary32Parts) -> (u64, u32, i32) {
    (pa.significand() as u64, pa.sign << 31, pa.exponent as i32 - 127)
}

/// `acc[i] += ama5(a, b[i])` for an all-normal row `b` and normal `a`.
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn ama5_axpy_normal(pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    let (sign_a, fa, ea) = ama5_fields(pa);
    // With `a` and the row both normal, `exp = (e_a - 126) + e_b` with
    // `e_b ∈ [1, 254]`: for `e_a ≤ 125` overflow is unreachable
    // (`exp ≤ 253`), for `e_a ≥ 127` underflow is unreachable (`exp ≥ 2`),
    // and for `e_a = 126` neither clamp can fire (`exp ∈ [1, 254]`) — so
    // each sweep arms only the clamp its operand can actually hit.
    match pa.exponent {
        126 => lane_axpy(b, acc, |bb| ama5_lane_m::<CLAMP_NONE, false>(sign_a, fa, ea, bb)),
        0..=125 => lane_axpy(b, acc, |bb| ama5_lane_m::<CLAMP_LO, false>(sign_a, fa, ea, bb)),
        _ => lane_axpy(b, acc, |bb| ama5_lane_m::<CLAMP_HI, false>(sign_a, fa, ea, bb)),
    }
}

/// `acc[i] += ama5(a, b[i])` for a zero-bearing (no Inf/NaN) row `b` and
/// normal `a` — the one shared flush-to-zero sweep (see [`RowClass::Zeros`]).
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn ama5_axpy_zeros(pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    let (sign_a, fa, ea) = ama5_fields(pa);
    if pa.exponent <= 126 {
        // A zero/denormal element has `e_b = 0`, so `exp = e_a - 126 ≤ 0`
        // already lands in the underflow clamp — the plain underflow-armed
        // sweep flushes it to the same signed zero, no explicit select
        // needed (and overflow stays unreachable, `exp ≤ 254`).
        lane_axpy(b, acc, |bb| ama5_lane_m::<CLAMP_LO, false>(sign_a, fa, ea, bb));
    } else {
        // `e_a ≥ 127`: a zero element's `exp = e_a - 126 ≥ 1` would pack a
        // finite value, so the explicit flush select is required (and it
        // feeds the underflow clamp, so both clamps stay armed).
        lane_axpy(b, acc, |bb| ama5_lane_m::<CLAMP_BOTH, true>(sign_a, fa, ea, bb));
    }
}

/// `acc[i] += exact_fpm(a, b[i])` for an all-normal row `b` and normal `a`.
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn exact_axpy_normal(pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    let (sa, sign_a, ea) = exact_fields(pa);
    // `exp = (e_a - 127) + e_b + h` with `e_b ∈ [1, 254]`, `h ∈ {0, 1}`:
    // overflow needs `e_a ≥ 127`, underflow needs `e_a ≤ 126` — each sweep
    // arms exactly one clamp.
    if pa.exponent <= 126 {
        lane_axpy(b, acc, |bb| exact_lane_m::<CLAMP_LO, false>(sa, sign_a, ea, bb));
    } else {
        lane_axpy(b, acc, |bb| exact_lane_m::<CLAMP_HI, false>(sa, sign_a, ea, bb));
    }
}

/// `acc[i] += exact_fpm(a, b[i])` for a zero-bearing (no Inf/NaN) row `b`
/// and normal `a`.
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn exact_axpy_zeros(pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    let (sa, sign_a, ea) = exact_fields(pa);
    if pa.exponent <= 126 {
        // A zero/denormal element has `e_b = 0`, so
        // `exp = e_a - 127 + h ≤ 0` for either normalization bit — the
        // underflow clamp already flushes it to the same signed zero (the
        // junk fraction of the garbage product is discarded by that arm).
        lane_axpy(b, acc, |bb| exact_lane_m::<CLAMP_LO, false>(sa, sign_a, ea, bb));
    } else {
        lane_axpy(b, acc, |bb| exact_lane_m::<CLAMP_BOTH, true>(sa, sign_a, ea, bb));
    }
}

/// `out[i] = ama5(a[i], b[i])` for rows with no Inf/NaN on either side
/// (zeros/denormals allowed — guard with [`pair_has_special`]).
///
/// # Panics
///
/// Panics if the three lengths differ.
pub fn ama5_mul_pair(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
    assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
    lane_pair(a, b, out, ama5_pair_lane);
}

/// `out[i] = exact_fpm(a[i], b[i])` for rows with no Inf/NaN on either side
/// (zeros/denormals allowed — guard with [`pair_has_special`]).
///
/// # Panics
///
/// Panics if the three lengths differ.
pub fn exact_mul_pair(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
    assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
    lane_pair(a, b, out, exact_pair_lane);
}

/// `acc[i] += bf16(ta · bf16(b[i]))` with the shared operand pre-truncated
/// (bit-identical to truncating it per element).
///
/// `clean` asserts the caller classified the row: `ta` finite and `b` free
/// of Inf/NaN (zeros are fine — a bfloat product of finite operands is never
/// NaN), enabling the plain accumulate loop. Without it, products can be NaN
/// and every accumulate is payload-order pinned by [`nan_stable_add`].
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn bf16_axpy(ta: f32, b: &[f32], acc: &mut [f32], clean: bool) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    if clean {
        for (o, &y) in acc.iter_mut().zip(b) {
            *o += bf16_lane(ta * bf16_lane(y));
        }
    } else {
        for (o, &y) in acc.iter_mut().zip(b) {
            *o = nan_stable_add(*o, bf16_lane(ta * bf16_lane(y)));
        }
    }
}

/// `true` if a shared operand and a classified row rule out NaN products:
/// the row carries no Inf/NaN and the operand is finite. The guard behind
/// every `clean` fast accumulate (a NaN-free product stream makes the plain
/// `+=` loop bitwise order-independent, so no payload pinning is needed).
#[inline(always)]
pub fn clean_axpy(a: f32, class: RowClass) -> bool {
    class != RowClass::Special && a.to_bits() & EXP_FIELD != EXP_FIELD
}

/// `acc[i] += a · b[i]` on native IEEE multiplication (the `exact` kind).
///
/// `clean` as in [`bf16_axpy`]: with it the loop is the native fused form
/// the compiler vectorizes freely; without it accumulates are pinned by
/// [`nan_stable_add`].
///
/// # Panics
///
/// Panics if `b` and `acc` lengths differ.
pub fn native_axpy(a: f32, b: &[f32], acc: &mut [f32], clean: bool) {
    assert_eq!(b.len(), acc.len(), "axpy length mismatch");
    if clean {
        for (o, &y) in acc.iter_mut().zip(b) {
            *o += a * y;
        }
    } else {
        for (o, &y) in acc.iter_mut().zip(b) {
            *o = nan_stable_add(*o, a * y);
        }
    }
}

/// `out[i] = bf16(bf16(a[i]) · bf16(b[i]))` (the Bfloat16 multiplier's
/// elementwise product; special values flow through the native ops).
///
/// # Panics
///
/// Panics if the three lengths differ.
pub fn bf16_mul(a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
    assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = bf16_lane(bf16_lane(x) * bf16_lane(y));
    }
}

/// Shared loop driver for the axpy kernels: a straight-line zip over the row
/// with the (select-shaped, call-free) lane function inlined — the form the
/// autovectorizer reliably lowers to `LANES`-wide packed blocks plus its own
/// scalar tail. (An explicit `[u32; LANES]` chunked formulation was measured
/// ~60% slower than this shape under rustc 1.95: the chunk bookkeeping
/// outweighed the bounds-check elimination.)
#[inline(always)]
fn lane_axpy(b: &[f32], acc: &mut [f32], lane: impl Fn(u32) -> u32) {
    for (o, &y) in acc.iter_mut().zip(b) {
        *o += f32::from_bits(lane(y.to_bits()));
    }
}

/// Shared loop driver for the pairwise kernels (see [`lane_axpy`] on the
/// loop shape).
#[inline(always)]
fn lane_pair(a: &[f32], b: &[f32], out: &mut [f32], lane: impl Fn(u32, u32) -> u32) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f32::from_bits(lane(x.to_bits(), y.to_bits()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    /// The branching reference `pack_lane` re-expresses (mirrors
    /// `fpm::pack_clamped`, which is private to keep the datapath sealed).
    fn pack_branchy(sign_bit: u32, exp: i32, frac: u32) -> u32 {
        if exp >= 0xFF {
            sign_bit | INF_BITS
        } else if exp <= 0 {
            sign_bit
        } else {
            sign_bit | ((exp as u32) << 23) | frac
        }
    }

    #[test]
    fn pack_lane_matches_branching_clamp() {
        let mut rng = rng();
        for _ in 0..20_000 {
            let sign = if rng.gen::<bool>() { SIGN_BIT } else { 0 };
            let exp = rng.gen_range(-300i32..600);
            let frac = rng.gen::<u32>() & FRAC_MASK;
            assert_eq!(
                pack_lane(sign, exp, frac),
                pack_branchy(sign, exp, frac),
                "sign={sign:#x} exp={exp} frac={frac:#x}"
            );
        }
        for exp in [-1, 0, 1, 0xFE, 0xFF, 0x100] {
            assert_eq!(pack_lane(0, exp, 1), pack_branchy(0, exp, 1), "exp={exp}");
        }
    }

    /// The clamp-specialized sweeps the axpy dispatch selects must equal
    /// the full-clamp lane functions for **every** (shared exponent, row
    /// exponent) combination — exhaustive over both 8-bit exponent fields,
    /// with fraction corners and both signs.
    #[test]
    fn clamp_specializations_match_full_pack_exhaustively() {
        for ea in 1u32..=254 {
            for &fa in &[0u32, 0x35_5555, FRAC_MASK] {
                let pa = Binary32Parts { sign: (ea + fa) % 2, exponent: ea, fraction: fa };
                let (sign_a, pfa, em126) = ama5_fields(pa);
                let (sa, _, em127) = exact_fields(pa);
                for bexp in 0u32..=254 {
                    for &bfrac in &[0u32, 1, FRAC_MASK] {
                        let bbits = (u32::from(bexp % 2 == 1) << 31) | (bexp << 23) | bfrac;
                        let b = [f32::from_bits(bbits)];

                        if bexp != 0 {
                            let mut acc = [0.5f32];
                            ama5_axpy_normal(pa, &b, &mut acc);
                            let want = 0.5 + f32::from_bits(ama5_lane(sign_a, pfa, em126, bbits));
                            assert_eq!(acc[0].to_bits(), want.to_bits(), "ama5 {ea} {bexp}");

                            let mut acc = [0.5f32];
                            exact_axpy_normal(pa, &b, &mut acc);
                            let want = 0.5 + f32::from_bits(exact_lane(sa, sign_a, em127, bbits));
                            assert_eq!(acc[0].to_bits(), want.to_bits(), "exact {ea} {bexp}");
                        }

                        let mut acc = [0.5f32];
                        ama5_axpy_zeros(pa, &b, &mut acc);
                        let want = 0.5 + f32::from_bits(ama5_lane_zeros(sign_a, pfa, em126, bbits));
                        assert_eq!(acc[0].to_bits(), want.to_bits(), "ama5-z {ea} {bexp}");

                        let mut acc = [0.5f32];
                        exact_axpy_zeros(pa, &b, &mut acc);
                        let want = 0.5 + f32::from_bits(exact_lane_zeros(sa, sign_a, em127, bbits));
                        assert_eq!(acc[0].to_bits(), want.to_bits(), "exact-z {ea} {bexp}");
                    }
                }
            }
        }
    }

    #[test]
    fn classify_row_flags_zeros_and_specials() {
        assert_eq!(classify_row(&[]), RowClass::Normal);
        assert_eq!(classify_row(&[0.5, -3.0, f32::MAX]), RowClass::Normal);
        assert_eq!(classify_row(&[0.5, -0.0]), RowClass::Zeros);
        assert_eq!(classify_row(&[1e-40]), RowClass::Zeros);
        assert_eq!(classify_row(&[0.0, f32::INFINITY]), RowClass::Special);
        assert_eq!(classify_row(&[f32::NAN]), RowClass::Special);
        assert!(pair_has_special(&[1.0], &[f32::NEG_INFINITY]));
        assert!(pair_has_special(&[f32::NAN], &[1.0]));
        assert!(!pair_has_special(&[0.0, 1.0], &[-2.0, 1e-40]));
    }

    /// The public kernels must equal the scalar lane functions on every
    /// element, including block boundaries and ragged tails.
    #[test]
    fn dispatched_kernels_match_scalar_lanes() {
        let mut rng = rng();
        for len in [0usize, 1, LANES - 1, LANES, LANES + 1, 4 * LANES + 3] {
            let pa = Binary32Parts::from_f32(rng.gen_range(0.01f32..4.0) - 2.0);
            let pa = if pa.exponent == 0 { Binary32Parts::from_f32(1.5) } else { pa };
            let normal: Vec<f32> = (0..len).map(|_| rng.gen_range(0.25f32..4.0) - 2.1).collect();
            let normal: Vec<f32> =
                normal.iter().map(|&v| if v.abs() < 1e-20 { 0.7 } else { v }).collect();
            let mut zeroed = normal.clone();
            if len > 1 {
                zeroed[len / 2] = 0.0;
                zeroed[len - 1] = -0.0;
            }
            let (sign_a, fa, ea) = ama5_fields(pa);
            let (sa, _, ea127) = exact_fields(pa);

            let mut acc = vec![0.5f32; len];
            ama5_axpy_normal(pa, &normal, &mut acc);
            for (i, o) in acc.iter().enumerate() {
                let want = 0.5 + f32::from_bits(ama5_lane(sign_a, fa, ea, normal[i].to_bits()));
                assert_eq!(o.to_bits(), want.to_bits(), "ama5 normal len={len} i={i}");
            }

            let mut acc = vec![0.25f32; len];
            ama5_axpy_zeros(pa, &zeroed, &mut acc);
            for (i, o) in acc.iter().enumerate() {
                let want =
                    0.25 + f32::from_bits(ama5_lane_zeros(sign_a, fa, ea, zeroed[i].to_bits()));
                assert_eq!(o.to_bits(), want.to_bits(), "ama5 zeros len={len} i={i}");
            }

            let mut acc = vec![1.0f32; len];
            exact_axpy_normal(pa, &normal, &mut acc);
            for (i, o) in acc.iter().enumerate() {
                let want = 1.0 + f32::from_bits(exact_lane(sa, sign_a, ea127, normal[i].to_bits()));
                assert_eq!(o.to_bits(), want.to_bits(), "exact normal len={len} i={i}");
            }

            let mut acc = vec![-0.75f32; len];
            exact_axpy_zeros(pa, &zeroed, &mut acc);
            for (i, o) in acc.iter().enumerate() {
                let want = -0.75
                    + f32::from_bits(exact_lane_zeros(sa, sign_a, ea127, zeroed[i].to_bits()));
                assert_eq!(o.to_bits(), want.to_bits(), "exact zeros len={len} i={i}");
            }

            let mut out = vec![0.0f32; len];
            ama5_mul_pair(&zeroed, &normal, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = ama5_pair_lane(zeroed[i].to_bits(), normal[i].to_bits());
                assert_eq!(o.to_bits(), want, "ama5 pair len={len} i={i}");
            }

            let mut out = vec![0.0f32; len];
            exact_mul_pair(&normal, &zeroed, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = exact_pair_lane(normal[i].to_bits(), zeroed[i].to_bits());
                assert_eq!(o.to_bits(), want, "exact pair len={len} i={i}");
            }

            for clean in [false, true] {
                let mut acc = vec![0.125f32; len];
                bf16_axpy(0.7, &zeroed, &mut acc, clean);
                for (i, o) in acc.iter().enumerate() {
                    let want = 0.125 + bf16_lane(0.7 * bf16_lane(zeroed[i]));
                    assert_eq!(o.to_bits(), want.to_bits(), "bf16 axpy len={len} i={i}");
                }

                let mut acc = vec![0.5f32; len];
                native_axpy(0.7, &zeroed, &mut acc, clean);
                for (i, o) in acc.iter().enumerate() {
                    let want = 0.5 + 0.7 * zeroed[i];
                    assert_eq!(o.to_bits(), want.to_bits(), "native axpy len={len} i={i}");
                }
            }

            let mut out = vec![0.0f32; len];
            bf16_mul(&normal, &zeroed, &mut out);
            for (i, o) in out.iter().enumerate() {
                let want = bf16_lane(bf16_lane(normal[i]) * bf16_lane(zeroed[i]));
                assert_eq!(o.to_bits(), want.to_bits(), "bf16 mul len={len} i={i}");
            }
        }
    }
}
