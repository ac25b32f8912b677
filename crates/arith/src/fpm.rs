//! IEEE-754 binary32 floating-point multipliers built around a mantissa
//! array core (paper §4.1, Figure 14).
//!
//! A floating-point multiplier (FPM) has three units: the mantissa
//! multiplier, the exponent adder, and the normalization/rounding unit. The
//! mantissa multiplier consumes ~81% of the power \[67\], so Defensive
//! Approximation replaces only it; sign, exponent, and normalization logic
//! stay exact hardware.
//!
//! Fidelity notes (deliberate modelling choices, each pinned by a unit test
//! below):
//!
//! * **Normalization assumes the exact-core invariant.** For exact cores the
//!   48-bit significand product lies in `[2^46, 2^48)`, so the unit checks
//!   bit 47 only and re-packs with an implicit leading one. Approximate cores
//!   may violate the invariant; the unchanged normalization unit then
//!   *force-normalizes* — this is part of the hardware's behaviour, not a
//!   simulation artifact, and it is what produces the paper's inflation.
//! * **Rounding is truncation** (round toward zero), the common choice in
//!   approximate FPM designs.
//! * **Denormals are flushed to zero** on input and output.
//! * NaN/Inf follow IEEE semantics and bypass the approximate core.

use crate::array::{ArrayMultiplier, ArrayMultiplierSpec};
use crate::batch::{gemm_tile_rows, BatchKernel};
use crate::bitslice::{BitslicedArray, BITSLICE_LANES, BITSLICE_WIDE, BITSLICE_WIDE_LANES};
use crate::multiplier::Multiplier;
use crate::simd::{self, RowClass};

/// Mantissa width including the implicit leading one.
pub const SIGNIFICAND_BITS: usize = 24;
/// Exponent bias of binary32.
pub const EXPONENT_BIAS: i32 = 127;

/// The raw fields of an IEEE-754 binary32 value (paper Figure 14).
///
/// # Examples
///
/// ```
/// use da_arith::fpm::Binary32Parts;
///
/// let p = Binary32Parts::from_f32(1.5);
/// assert_eq!(p.sign, 0);
/// assert_eq!(p.exponent, 127);          // unbiased exponent 0
/// assert_eq!(p.fraction, 1 << 22);      // 1.1₂
/// assert_eq!(p.significand(), (1 << 23) | (1 << 22));
/// assert_eq!(p.to_f32(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binary32Parts {
    /// Sign bit (0 or 1).
    pub sign: u32,
    /// Biased 8-bit exponent field.
    pub exponent: u32,
    /// 23-bit fraction field (without the implicit one).
    pub fraction: u32,
}

impl Binary32Parts {
    /// Decompose an `f32` into its fields.
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        Binary32Parts {
            sign: bits >> 31,
            exponent: (bits >> 23) & 0xFF,
            fraction: bits & 0x7F_FFFF,
        }
    }

    /// Reassemble the `f32`.
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.sign << 31) | (self.exponent << 23) | self.fraction)
    }

    /// The 24-bit significand with the implicit leading one.
    ///
    /// Only meaningful for normal numbers (`exponent != 0`).
    pub fn significand(self) -> u32 {
        (1 << 23) | self.fraction
    }

    /// `true` for zero or denormal values (both flushed to zero here).
    pub fn is_zero_or_denormal(self) -> bool {
        self.exponent == 0
    }

    /// `true` for infinity or NaN.
    pub fn is_special(self) -> bool {
        self.exponent == 0xFF
    }
}

/// A binary32 multiplier whose 24×24 mantissa core is a configurable
/// gate-level [`ArrayMultiplier`].
///
/// # Examples
///
/// ```
/// use da_arith::{Multiplier, fpm::FloatMultiplier};
///
/// // The gate-level exact FPM equals native multiplication up to the
/// // truncating rounding mode (≤ 1 ulp below).
/// let exact = FloatMultiplier::exact();
/// let r = exact.multiply(1.25, 3.5);
/// assert_eq!(r, 1.25 * 3.5);
///
/// // The paper's Ax-FPM inflates products by a data-dependent factor.
/// let ax = FloatMultiplier::ax_fpm();
/// let approx = ax.multiply(0.6, 0.7);
/// assert!(approx >= 0.6 * 0.7 && approx <= 2.0 * 0.6 * 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct FloatMultiplier {
    core: ArrayMultiplier,
    name: String,
    fast_path: FastPath,
    /// Bit-sliced mirror of `core` for cores without a closed form, built on
    /// first use (64 significand products per plane sweep, see
    /// [`BitslicedArray`]).
    bitsliced: std::sync::OnceLock<BitslicedArray>,
}

/// Closed-form shortcuts for cores whose gate-level behaviour has been proven
/// equivalent (see the `fast_path_matches_gate_level` test here and
/// `array.rs`'s `ama5_array_matches_closed_form`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FastPath {
    /// Simulate the core gate by gate.
    None,
    /// Canonical AMA5 array + AMA5 ripple CPA: the significand product
    /// collapses to `sa << 24`, so the result is `1.f_a · 2^(ea + eb - 126)`.
    CanonicalAma5,
    /// Exact core: the significand product is `sa * sb`.
    Exact,
}

impl FloatMultiplier {
    /// Build an FPM around the given mantissa-core configuration.
    ///
    /// # Panics
    ///
    /// Panics if the core width is not [`SIGNIFICAND_BITS`].
    pub fn with_core(name: impl Into<String>, spec: ArrayMultiplierSpec) -> Self {
        assert_eq!(
            spec.width, SIGNIFICAND_BITS,
            "binary32 mantissa core must be {SIGNIFICAND_BITS} bits wide"
        );
        let fast_path = if spec == ArrayMultiplierSpec::ax_mantissa(SIGNIFICAND_BITS) {
            FastPath::CanonicalAma5
        } else if spec == ArrayMultiplierSpec::exact(SIGNIFICAND_BITS) {
            FastPath::Exact
        } else {
            FastPath::None
        };
        FloatMultiplier {
            core: ArrayMultiplier::new(spec),
            name: name.into(),
            fast_path,
            bitsliced: std::sync::OnceLock::new(),
        }
    }

    /// The bit-sliced mirror of the mantissa core, built lazily (only cores
    /// without a closed-form fast path ever ask for it).
    fn bitsliced(&self) -> &BitslicedArray {
        self.bitsliced.get_or_init(|| BitslicedArray::new(self.core.spec()))
    }

    /// Gate-level exact FPM (reference; truncating rounding).
    pub fn exact() -> Self {
        FloatMultiplier::with_core("exact-fpm", ArrayMultiplierSpec::exact(SIGNIFICAND_BITS))
    }

    /// The paper's **Ax-FPM**: AMA5 array mantissa core.
    pub fn ax_fpm() -> Self {
        FloatMultiplier::with_core("ax-fpm", ArrayMultiplierSpec::ax_mantissa(SIGNIFICAND_BITS))
    }

    /// The mantissa core configuration.
    pub fn core_spec(&self) -> &ArrayMultiplierSpec {
        self.core.spec()
    }

    /// Multiply through the simulated datapath.
    pub fn multiply_f32(&self, a: f32, b: f32) -> f32 {
        self.multiply_inner(a, b, false)
    }

    /// Multiply forcing the gate-level core simulation even when a proven
    /// closed-form fast path exists (used to validate the fast paths).
    pub fn multiply_gate_level(&self, a: f32, b: f32) -> f32 {
        self.multiply_inner(a, b, true)
    }

    fn multiply_inner(&self, a: f32, b: f32, force_gate_level: bool) -> f32 {
        let pa = Binary32Parts::from_f32(a);
        let pb = Binary32Parts::from_f32(b);
        let sign = pa.sign ^ pb.sign;

        // Special values bypass the approximate core (exact hardware path).
        if a.is_nan() || b.is_nan() {
            return f32::NAN;
        }
        if pa.is_special() || pb.is_special() {
            // inf * 0 (or denormal, which we flush) is NaN.
            if pa.is_zero_or_denormal() || pb.is_zero_or_denormal() {
                return f32::NAN;
            }
            return pack(sign, 0xFF, 0);
        }
        if pa.is_zero_or_denormal() || pb.is_zero_or_denormal() {
            return pack(sign, 0, 0);
        }

        let prod = if force_gate_level {
            self.core.multiply(pa.significand() as u64, pb.significand() as u64)
        } else {
            match self.fast_path {
                FastPath::None => {
                    self.core.multiply(pa.significand() as u64, pb.significand() as u64)
                }
                FastPath::CanonicalAma5 => (pa.significand() as u64) << SIGNIFICAND_BITS,
                FastPath::Exact => pa.significand() as u64 * pb.significand() as u64,
            }
        };
        Self::finish(sign, pa.exponent, pb.exponent, prod)
    }

    /// The normalization/rounding unit: turn a 48-bit significand product and
    /// the operand exponents into a packed binary32. Shared verbatim by the
    /// scalar path and the batched kernel so the two cannot diverge.
    #[inline]
    fn finish(sign: u32, exp_a: u32, exp_b: u32, prod: u64) -> f32 {
        if prod == 0 {
            // Only reachable with aggressive cores under ablation wirings:
            // the normalization unit has nothing to normalize.
            return pack(sign, 0, 0);
        }

        let mut exp = exp_a as i32 + exp_b as i32 - EXPONENT_BIAS;
        // Exact-unit normalization: check bit 47 only, truncate low bits.
        let frac = if (prod >> 47) & 1 == 1 {
            exp += 1;
            ((prod >> 24) & 0x7F_FFFF) as u32
        } else {
            ((prod >> 23) & 0x7F_FFFF) as u32
        };

        pack_clamped(sign << 31, exp, frac)
    }
}

/// Saturating exponent clamp + field pack: overflow to infinity, underflow
/// flushed to zero. The single source of truth for the datapath's output
/// stage, shared by [`FloatMultiplier::finish`] and the batched kernel's
/// closed-form loops so they cannot diverge. `sign_bit` is already shifted
/// into bit 31.
#[inline]
fn pack_clamped(sign_bit: u32, exp: i32, frac: u32) -> f32 {
    let bits = if exp >= 0xFF {
        sign_bit | 0x7F80_0000 // overflow -> infinity
    } else if exp <= 0 {
        sign_bit // underflow -> flush to zero
    } else {
        sign_bit | ((exp as u32) << 23) | frac
    };
    f32::from_bits(bits)
}

/// The batched kernel behind [`FloatMultiplier::batch_kernel`] and the
/// one-shot slice entry points: decomposes the shared operand once per
/// sweep. Cores without a proven closed form (HEAP, ablation wirings) run on
/// the bit-sliced plane sweep ([`BitslicedArray`], 64 products per block, or
/// 8×64 across runs of normal weights in a tile GEMM), which needs no table.
/// Cores **with** a closed form
/// (canonical AMA5, the exact array) run on the lane-parallel kernels of
/// [`crate::simd`]: the caller's [`RowClass`] picks a class-matched
/// `LANES`-wide block pipeline; `Special` rows stay on the shared
/// per-element slow path.
///
/// Bit-exactness with the scalar path holds by construction: the special
/// value / zero / denormal branch structure mirrors `multiply_inner`, and the
/// normalization tail re-expresses the shared [`FloatMultiplier::finish`]
/// (asserted equivalent in `crate::simd`'s unit tests).
struct FpmBatchKernel<'a> {
    m: &'a FloatMultiplier,
}

impl FpmBatchKernel<'_> {
    #[inline]
    fn sig_product(&self, sa: u64, sb: u64) -> u64 {
        match self.m.fast_path {
            FastPath::CanonicalAma5 => sa << SIGNIFICAND_BITS,
            FastPath::Exact => sa * sb,
            FastPath::None => self.m.core.multiply(sa, sb),
        }
    }

    /// One product against a decomposed left operand; mirrors
    /// `multiply_inner` branch for branch.
    #[inline]
    fn mul_one(&self, pa: Binary32Parts, a_nan: bool, b: f32) -> f32 {
        let pb = Binary32Parts::from_f32(b);
        let sign = pa.sign ^ pb.sign;

        if a_nan || b.is_nan() {
            return f32::NAN;
        }
        if pa.is_special() || pb.is_special() {
            if pa.is_zero_or_denormal() || pb.is_zero_or_denormal() {
                return f32::NAN;
            }
            return pack(sign, 0xFF, 0);
        }
        if pa.is_zero_or_denormal() || pb.is_zero_or_denormal() {
            return pack(sign, 0, 0);
        }

        let prod = self.sig_product(pa.significand() as u64, pb.significand() as u64);
        FloatMultiplier::finish(sign, pa.exponent, pb.exponent, prod)
    }
}

impl FpmBatchKernel<'_> {
    /// The AMA5 closed form (`prod = s_a << 24`) makes the product of two
    /// normals a pure function of `a` and `b`'s sign/exponent fields,
    /// `1.f_a · 2^(e_a + e_b - 126)`: `s_a << 24` always has bit 47 set, so
    /// normalization adds one to `e_a + e_b - 127`. `Normal`
    /// and `Zeros` rows run the lane-parallel block kernels of
    /// [`crate::simd`]; `Special` rows take the per-element sweep so Inf/NaN
    /// semantics come from the one shared slow path.
    fn ama5_axpy_classified(
        &mut self,
        pa: Binary32Parts,
        class: RowClass,
        b: &[f32],
        acc: &mut [f32],
    ) {
        match class {
            RowClass::Normal => simd::ama5_axpy_normal(pa, b, acc),
            RowClass::Zeros => simd::ama5_axpy_zeros(pa, b, acc),
            RowClass::Special => self.ama5_sweep_special(pa, b, acc),
        }
    }

    /// Exact-core fast path with the shared operand's significand hoisted:
    /// one widened `u64` multiply plus a branch-free re-expression of
    /// [`FloatMultiplier::finish`] per element, on the same class-matched
    /// lane kernels as the AMA5 path.
    fn exact_axpy_classified(
        &mut self,
        pa: Binary32Parts,
        class: RowClass,
        b: &[f32],
        acc: &mut [f32],
    ) {
        match class {
            RowClass::Normal => simd::exact_axpy_normal(pa, b, acc),
            RowClass::Zeros => simd::exact_axpy_zeros(pa, b, acc),
            RowClass::Special => self.exact_sweep_special(pa, b, acc),
        }
    }

    /// AMA5 sweep of a row containing Inf/NaN: specials go through the
    /// shared [`FpmBatchKernel::mul_one`] slow path, everything else runs
    /// the scalar lane closed form (with its flush-to-zero select).
    fn ama5_sweep_special(&mut self, pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
        let (sign_a, fa, ea) = simd::ama5_fields(pa);
        for (o, &y) in acc.iter_mut().zip(b) {
            let bbits = y.to_bits();
            if (bbits >> 23) & 0xFF == 0xFF {
                *o = simd::nan_stable_add(*o, self.mul_one(pa, false, y));
            } else {
                *o += f32::from_bits(simd::ama5_lane_zeros(sign_a, fa, ea, bbits));
            }
        }
    }

    /// Exact-core sweep of a row containing Inf/NaN (see
    /// [`FpmBatchKernel::ama5_sweep_special`]).
    fn exact_sweep_special(&mut self, pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
        let (sa, sign_a, ea) = simd::exact_fields(pa);
        for (o, &y) in acc.iter_mut().zip(b) {
            let bbits = y.to_bits();
            if (bbits >> 23) & 0xFF == 0xFF {
                *o = simd::nan_stable_add(*o, self.mul_one(pa, false, y));
            } else {
                *o += f32::from_bits(simd::exact_lane_zeros(sa, sign_a, ea, bbits));
            }
        }
    }
}

impl FpmBatchKernel<'_> {
    /// The shared `axpy` body over an already-decomposed left operand,
    /// behind [`BatchKernel::axpy`] and every weight of
    /// [`BatchKernel::gemm_tile`], so the entry points cannot diverge.
    /// `class` is the caller's [covering](RowClass::covers) class of `b`.
    fn axpy_parts(
        &mut self,
        pa: Binary32Parts,
        a_nan: bool,
        class: RowClass,
        b: &[f32],
        acc: &mut [f32],
    ) {
        assert_eq!(b.len(), acc.len(), "axpy length mismatch");
        if !pa.is_special() && !pa.is_zero_or_denormal() {
            return match self.m.fast_path {
                FastPath::CanonicalAma5 => self.ama5_axpy_classified(pa, class, b, acc),
                FastPath::Exact => self.exact_axpy_classified(pa, class, b, acc),
                FastPath::None => self.axpy_parts_bitsliced(pa, b, acc),
            };
        }
        for (o, &y) in acc.iter_mut().zip(b) {
            *o = simd::nan_stable_add(*o, self.mul_one(pa, a_nan, y));
        }
    }

    /// Gate-level axpy on the bit-sliced core: 64 normal right-hand elements
    /// are transposed into significand planes and multiplied per block; zero,
    /// denormal, and Inf/NaN elements take the shared [`FpmBatchKernel::mul_one`]
    /// slow path in place. Each accumulator element receives exactly one
    /// [`simd::nan_stable_add`], so the result is bit-identical to the
    /// per-element sweep.
    fn axpy_parts_bitsliced(&mut self, pa: Binary32Parts, b: &[f32], acc: &mut [f32]) {
        let m = self.m;
        let sliced = m.bitsliced();
        let sa = pa.significand() as u64;
        let mut sb_block = [sa; BITSLICE_LANES];
        // `(element index, raw b bits)` per occupied lane.
        let mut lanes: [(usize, u32); BITSLICE_LANES] = [(0, 0); BITSLICE_LANES];
        let mut n = 0usize;
        for (i, &y) in b.iter().enumerate() {
            let bbits = y.to_bits();
            let exp_b = (bbits >> 23) & 0xFF;
            if exp_b == 0 || exp_b == 0xFF {
                acc[i] = simd::nan_stable_add(acc[i], self.mul_one(pa, false, y));
                continue;
            }
            sb_block[n] = ((1u32 << 23) | (bbits & 0x7F_FFFF)) as u64;
            lanes[n] = (i, bbits);
            n += 1;
            if n == BITSLICE_LANES {
                Self::finish_axpy_block(sliced, sa, &sb_block, &lanes, n, pa, acc);
                n = 0;
            }
        }
        if n > 0 {
            // Residual lanes keep the `sa * sa` padding; their products are
            // computed and discarded.
            for slot in sb_block.iter_mut().skip(n) {
                *slot = sa;
            }
            Self::finish_axpy_block(sliced, sa, &sb_block, &lanes, n, pa, acc);
        }
    }

    fn finish_axpy_block(
        sliced: &BitslicedArray,
        sa: u64,
        sb_block: &[u64; BITSLICE_LANES],
        lanes: &[(usize, u32); BITSLICE_LANES],
        n: usize,
        pa: Binary32Parts,
        acc: &mut [f32],
    ) {
        // The left significand is constant across the call, so its planes are
        // broadcasts — only the right-hand block pays a transpose.
        let prods = sliced.multiply_block_shared(sa, sb_block);
        for lane in 0..n {
            let (i, bbits) = lanes[lane];
            let sign = pa.sign ^ (bbits >> 31);
            let exp_b = (bbits >> 23) & 0xFF;
            let p = FloatMultiplier::finish(sign, pa.exponent, exp_b, prods[lane]);
            acc[i] = simd::nan_stable_add(acc[i], p);
        }
    }

    /// Fused multi-term axpy for gate-level cores:
    /// `acc[j] += Σ_t multiply(a[t], b[t·acc.len() + j])`, accumulated per
    /// element in ascending `t`. Walks the `a` terms in order, batching every
    /// run of [`BITSLICE_WIDE`] normal terms through one wide plane sweep;
    /// zero/denormal/Inf/NaN terms (and the ragged tail) take the
    /// single-term path in place, so accumulation order is preserved exactly.
    fn axpy_fused(&mut self, a: &[f32], b: &[f32], class: RowClass, acc: &mut [f32]) {
        let n = acc.len();
        let mut t = 0usize;
        while t < a.len() {
            let wide = n > 0
                && a.len() - t >= BITSLICE_WIDE
                && a[t..t + BITSLICE_WIDE].iter().all(|&x| {
                    let e = (x.to_bits() >> 23) & 0xFF;
                    e != 0 && e != 0xFF
                });
            if wide {
                let a8: [f32; BITSLICE_WIDE] = a[t..t + BITSLICE_WIDE].try_into().unwrap();
                self.axpy8_bitsliced(a8, &b[t * n..(t + BITSLICE_WIDE) * n], acc);
                t += BITSLICE_WIDE;
            } else {
                let (x, row) = (a[t], &b[t * n..(t + 1) * n]);
                self.axpy_parts(Binary32Parts::from_f32(x), x.is_nan(), class, row, acc);
                t += 1;
            }
        }
    }

    /// Eight shared left operands (all normal) against eight right-hand rows,
    /// on one [`BITSLICE_WIDE`]-block plane sweep per 64 output columns. Per
    /// output element the eight products are accumulated in ascending term
    /// order with one [`simd::nan_stable_add`] each — bit-identical to eight
    /// sequential [`BatchKernel::axpy`] calls. Right-hand specials take the
    /// shared [`FpmBatchKernel::mul_one`] slow path in place.
    fn axpy8_bitsliced(&mut self, a: [f32; BITSLICE_WIDE], b: &[f32], acc: &mut [f32]) {
        let m = self.m;
        let sliced = m.bitsliced();
        let n = acc.len();
        let pas: [Binary32Parts; BITSLICE_WIDE] =
            std::array::from_fn(|t| Binary32Parts::from_f32(a[t]));
        let sa8: [u64; BITSLICE_WIDE] = std::array::from_fn(|t| pas[t].significand() as u64);
        let mut sb = [1u64 << 23; BITSLICE_WIDE_LANES];
        // Per-term bitmask of lanes whose right operand is zero / denormal /
        // Inf / NaN (those lanes carry `1.0` padding through the sweep and
        // their products are discarded).
        let mut special = [0u64; BITSLICE_WIDE];
        for j0 in (0..n).step_by(BITSLICE_LANES) {
            let cols = (n - j0).min(BITSLICE_LANES);
            for t in 0..BITSLICE_WIDE {
                special[t] = 0;
                let brow = &b[t * n + j0..t * n + j0 + cols];
                for (l, &y) in brow.iter().enumerate() {
                    let bbits = y.to_bits();
                    let exp_b = (bbits >> 23) & 0xFF;
                    if exp_b == 0 || exp_b == 0xFF {
                        special[t] |= 1u64 << l;
                        sb[t * BITSLICE_LANES + l] = 1 << 23;
                    } else {
                        sb[t * BITSLICE_LANES + l] = ((1u32 << 23) | (bbits & 0x7F_FFFF)) as u64;
                    }
                }
                for slot in sb[t * BITSLICE_LANES..(t + 1) * BITSLICE_LANES].iter_mut().skip(cols) {
                    *slot = 1 << 23;
                }
            }
            let prods = sliced.multiply_block8_shared(&sa8, &sb);
            for l in 0..cols {
                let o = &mut acc[j0 + l];
                for t in 0..BITSLICE_WIDE {
                    let y = b[t * n + j0 + l];
                    let p = if (special[t] >> l) & 1 == 1 {
                        self.mul_one(pas[t], false, y)
                    } else {
                        let bbits = y.to_bits();
                        FloatMultiplier::finish(
                            pas[t].sign ^ (bbits >> 31),
                            pas[t].exponent,
                            (bbits >> 23) & 0xFF,
                            prods[t * BITSLICE_LANES + l],
                        )
                    };
                    *o = simd::nan_stable_add(*o, p);
                }
            }
        }
    }

    /// Block-compute element-wise products of two slices on the bit-sliced
    /// core. Lanes where either operand is zero/denormal/Inf/NaN fall back to
    /// [`FpmBatchKernel::mul_one`] in place; everything else runs 64 products
    /// per plane sweep. `out` receives one product per element.
    fn mul_pair_bitsliced(&mut self, a: &[f32], b: &[f32], out: &mut [f32]) {
        let m = self.m;
        let sliced = m.bitsliced();
        let mut sa_block = [1u64 << 23; BITSLICE_LANES];
        let mut sb_block = [1u64 << 23; BITSLICE_LANES];
        let mut lane_pos = [0usize; BITSLICE_LANES];
        for ((ac, bc), oc) in a
            .chunks(BITSLICE_LANES)
            .zip(b.chunks(BITSLICE_LANES))
            .zip(out.chunks_mut(BITSLICE_LANES))
        {
            let mut n = 0usize;
            for (i, (&x, &y)) in ac.iter().zip(bc).enumerate() {
                let xb = x.to_bits();
                let yb = y.to_bits();
                let ex = (xb >> 23) & 0xFF;
                let ey = (yb >> 23) & 0xFF;
                if ex == 0 || ex == 0xFF || ey == 0 || ey == 0xFF {
                    oc[i] = self.mul_one(Binary32Parts::from_f32(x), x.is_nan(), y);
                    continue;
                }
                sa_block[n] = ((1u32 << 23) | (xb & 0x7F_FFFF)) as u64;
                sb_block[n] = ((1u32 << 23) | (yb & 0x7F_FFFF)) as u64;
                lane_pos[n] = i;
                n += 1;
            }
            if n > 0 {
                for lane in n..BITSLICE_LANES {
                    sa_block[lane] = 1 << 23;
                    sb_block[lane] = 1 << 23;
                }
                let prods = sliced.multiply_block(&sa_block, &sb_block);
                for lane in 0..n {
                    let i = lane_pos[lane];
                    let xb = ac[i].to_bits();
                    let yb = bc[i].to_bits();
                    oc[i] = FloatMultiplier::finish(
                        (xb >> 31) ^ (yb >> 31),
                        (xb >> 23) & 0xFF,
                        (yb >> 23) & 0xFF,
                        prods[lane],
                    );
                }
            }
        }
    }
}

/// Elements per stack block of the fused dot product: lane-compute this many
/// products at a time, then accumulate them in slice order (the reduction
/// order is part of the bit-exactness contract, so only the products — never
/// the summation — are parallelized across lanes).
const DOT_BLOCK: usize = 8 * simd::LANES;

impl FpmBatchKernel<'_> {
    /// The body of [`Multiplier::dot_accumulate`].
    fn dot(&mut self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_accumulate length mismatch");
        if self.m.fast_path == FastPath::None {
            // Gate-level products run 64 per plane sweep; the reduction stays
            // in slice order (the order is part of the bit-exactness
            // contract), so only the products are parallelized.
            let mut acc = 0.0f32;
            let mut buf = [0.0f32; BITSLICE_LANES];
            for (ac, bc) in a.chunks(BITSLICE_LANES).zip(b.chunks(BITSLICE_LANES)) {
                let prods = &mut buf[..ac.len()];
                self.mul_pair_bitsliced(ac, bc, prods);
                for &p in prods.iter() {
                    acc = simd::nan_stable_add(acc, p);
                }
            }
            return acc;
        }
        // Closed-form cores lane-compute the products block by block and
        // accumulate them in slice order; one Inf/NaN anywhere falls back to
        // the shared scalar loop (specials are vanishingly rare in
        // activations, and the slow path is the semantic ground truth).
        if !simd::pair_has_special(a, b) {
            let mut acc = 0.0f32;
            let mut buf = [0.0f32; DOT_BLOCK];
            for (ac, bc) in a.chunks(DOT_BLOCK).zip(b.chunks(DOT_BLOCK)) {
                let prods = &mut buf[..ac.len()];
                match self.m.fast_path {
                    FastPath::CanonicalAma5 => simd::ama5_mul_pair(ac, bc, prods),
                    _ => simd::exact_mul_pair(ac, bc, prods),
                }
                for &p in prods.iter() {
                    acc = simd::nan_stable_add(acc, p);
                }
            }
            return acc;
        }
        let mut acc = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            acc =
                simd::nan_stable_add(acc, self.mul_one(Binary32Parts::from_f32(x), x.is_nan(), y));
        }
        acc
    }

    /// The body of [`Multiplier::multiply_slice`].
    fn mul(&mut self, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
        assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
        if self.m.fast_path == FastPath::None {
            return self.mul_pair_bitsliced(a, b, out);
        }
        if !simd::pair_has_special(a, b) {
            match self.m.fast_path {
                FastPath::CanonicalAma5 => simd::ama5_mul_pair(a, b, out),
                _ => simd::exact_mul_pair(a, b, out),
            }
            return;
        }
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = self.mul_one(Binary32Parts::from_f32(x), x.is_nan(), y);
        }
    }
}

impl BatchKernel for FpmBatchKernel<'_> {
    fn axpy(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]) {
        debug_assert!(class.covers(simd::classify_row(b)), "stale row class");
        self.axpy_parts(Binary32Parts::from_f32(a), a.is_nan(), class, b, acc);
    }

    /// Closed-form cores sweep each weight against its patch row with the
    /// class-matched lane kernel (per element `k` ascending, exactly as
    /// row-by-row `axpy`). Gate-level cores run each output row as one
    /// fused multi-term axpy over its `K` weights, so runs of
    /// [`BITSLICE_WIDE`] normal weights share one wide plane sweep.
    fn gemm_tile(
        &mut self,
        w: &[f32],
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        let gate_level = self.m.fast_path == FastPath::None;
        gemm_tile_rows(w, b, tile, class, acc, acc_stride, |wrow, acc_row| {
            if gate_level {
                return self.axpy_fused(wrow, b, class, acc_row);
            }
            for (&a, brow) in wrow.iter().zip(b.chunks_exact(tile)) {
                self.axpy_parts(Binary32Parts::from_f32(a), a.is_nan(), class, brow, acc_row);
            }
        });
    }
}

impl Multiplier for FloatMultiplier {
    fn multiply(&self, a: f32, b: f32) -> f32 {
        self.multiply_f32(a, b)
    }

    fn name(&self) -> &str {
        &self.name
    }

    // One-shot slice calls run a fresh copy of the `batch_kernel` kernel.

    fn multiply_slice(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        FpmBatchKernel { m: self }.mul(a, b, out);
    }

    fn dot_accumulate(&self, a: &[f32], b: &[f32]) -> f32 {
        FpmBatchKernel { m: self }.dot(a, b)
    }

    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_> {
        Box::new(FpmBatchKernel { m: self })
    }
}

fn pack(sign: u32, exponent: u32, fraction: u32) -> f32 {
    Binary32Parts { sign, exponent, fraction }.to_f32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    /// Reference: binary32 multiply with round-toward-zero via integer math.
    fn f32_mul_truncated(a: f32, b: f32) -> f32 {
        let r = (a as f64) * (b as f64);
        if r == 0.0 || !r.is_finite() {
            return r as f32;
        }
        let sign = if r < 0.0 { -1.0 } else { 1.0 };
        let mag = r.abs();
        let towards_zero = f32::from_bits({
            let up = mag as f32;
            if (up as f64) > mag {
                up.to_bits() - 1
            } else {
                up.to_bits()
            }
        });
        sign as f32 * towards_zero
    }

    #[test]
    fn exact_fpm_matches_truncated_native_multiply() {
        let m = FloatMultiplier::exact();
        let mut rng = rng();
        for _ in 0..5000 {
            let a = rng.gen_range(-4.0f32..4.0);
            let b = rng.gen_range(-4.0f32..4.0);
            if a == 0.0 || b == 0.0 || ((a as f64) * (b as f64)).abs() < f32::MIN_POSITIVE as f64 {
                continue; // the simulated FPM flushes denormal results
            }
            let got = m.multiply(a, b);
            let want = f32_mul_truncated(a, b);
            assert_eq!(got.to_bits(), want.to_bits(), "a={a} b={b}");
        }
    }

    #[test]
    fn exact_fpm_handles_special_values() {
        let m = FloatMultiplier::exact();
        assert!(m.multiply(f32::NAN, 1.0).is_nan());
        assert!(m.multiply(1.0, f32::NAN).is_nan());
        assert!(m.multiply(f32::INFINITY, 0.0).is_nan());
        assert_eq!(m.multiply(f32::INFINITY, 2.0), f32::INFINITY);
        assert_eq!(m.multiply(f32::NEG_INFINITY, 2.0), f32::NEG_INFINITY);
        assert_eq!(m.multiply(f32::INFINITY, -2.0), f32::NEG_INFINITY);
        assert_eq!(m.multiply(0.0, 5.0), 0.0);
        assert_eq!(m.multiply(-0.0, 5.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn ax_fpm_inflation_is_bounded_by_two() {
        let m = FloatMultiplier::ax_fpm();
        let mut rng = rng();
        for _ in 0..5000 {
            let a = rng.gen_range(0.01f32..1.0);
            let b = rng.gen_range(0.01f32..1.0);
            let exact = (a as f64) * (b as f64);
            let approx = m.multiply(a, b) as f64;
            assert!(approx >= exact * (1.0 - 1e-6), "deflated: {a} * {b}");
            assert!(approx <= exact * 2.0 * (1.0 + 1e-6), "over-inflated: {a} * {b}");
        }
    }

    #[test]
    fn ax_fpm_closed_form_is_exact_over_one_point_fb() {
        // The AMA5 closed form `1.f_a · 2^(e_a + e_b - 126)` is
        // exact * 2 / (1.f_b), up to truncation.
        let m = FloatMultiplier::ax_fpm();
        let mut rng = rng();
        for _ in 0..2000 {
            let a = rng.gen_range(0.01f32..2.0);
            let b = rng.gen_range(0.01f32..2.0);
            let fb = 1.0 + (Binary32Parts::from_f32(b).fraction as f64) / (1u64 << 23) as f64;
            let predicted = (a as f64) * (b as f64) * 2.0 / fb;
            let got = m.multiply(a, b) as f64;
            let rel = (got - predicted).abs() / predicted;
            assert!(rel < 1e-6, "a={a} b={b} got={got} predicted={predicted}");
        }
    }

    #[test]
    fn ax_fpm_preserves_sign() {
        let m = FloatMultiplier::ax_fpm();
        let mut rng = rng();
        for _ in 0..1000 {
            let a = rng.gen_range(-2.0f32..2.0);
            let b = rng.gen_range(-2.0f32..2.0);
            if a == 0.0 || b == 0.0 {
                continue;
            }
            let approx = m.multiply(a, b);
            let exact = a * b;
            assert_eq!(
                approx.is_sign_negative(),
                exact.is_sign_negative(),
                "sign flipped for {a} * {b}"
            );
        }
    }

    #[test]
    fn ax_fpm_zero_annihilates() {
        let m = FloatMultiplier::ax_fpm();
        assert_eq!(m.multiply(0.0, 0.73), 0.0);
        assert_eq!(m.multiply(0.73, 0.0), 0.0);
        assert_eq!(m.multiply(-0.0, 0.73), -0.0);
    }

    #[test]
    fn denormals_flush_to_zero() {
        let m = FloatMultiplier::ax_fpm();
        let denormal = f32::from_bits(1); // smallest positive denormal
        assert_eq!(m.multiply(denormal, 1.0), 0.0);
        assert_eq!(m.multiply(1.0, denormal), 0.0);
    }

    #[test]
    fn overflow_saturates_to_infinity_and_underflow_flushes() {
        let exact = FloatMultiplier::exact();
        assert_eq!(exact.multiply(f32::MAX, 2.0), f32::INFINITY);
        assert_eq!(exact.multiply(f32::MAX, -2.0), f32::NEG_INFINITY);
        assert_eq!(exact.multiply(f32::MIN_POSITIVE, f32::MIN_POSITIVE), 0.0);
    }

    #[test]
    fn parts_round_trip() {
        let mut rng = rng();
        for _ in 0..1000 {
            let x = f32::from_bits(rng.gen::<u32>());
            if x.is_nan() {
                continue;
            }
            assert_eq!(Binary32Parts::from_f32(x).to_f32().to_bits(), x.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "mantissa core must be 24 bits")]
    fn rejects_wrong_core_width() {
        let _ = FloatMultiplier::with_core("bad", ArrayMultiplierSpec::exact(16));
    }

    /// The closed-form fast paths must be bit-identical to the gate-level
    /// simulation they shortcut.
    #[test]
    fn fast_path_matches_gate_level() {
        let mut rng = rng();
        for m in [FloatMultiplier::ax_fpm(), FloatMultiplier::exact()] {
            for _ in 0..20_000 {
                let a = f32::from_bits(rng.gen::<u32>() & 0x7FFF_FFFF);
                let b = f32::from_bits(rng.gen::<u32>());
                if a.is_nan() || b.is_nan() {
                    continue;
                }
                let fast = m.multiply(a, b);
                let gate = m.multiply_gate_level(a, b);
                assert_eq!(fast.to_bits(), gate.to_bits(), "{}: a={a:e} b={b:e}", m.name());
            }
        }
    }

    /// The bit-sliced block paths behind the one-shot slice entry points must
    /// be bit-identical to the scalar gate-level datapath for every core
    /// without a closed form — including blocks littered with zeros,
    /// denormals, and Inf/NaN, and slices long enough to cross block seams.
    #[test]
    fn bitsliced_one_shot_paths_match_scalar_gate_level() {
        use crate::array::{CellAssignment, CpaKind, PortMap};
        use crate::AdderKind;

        let ablation = FloatMultiplier::with_core(
            "ablate-swap",
            ArrayMultiplierSpec {
                width: SIGNIFICAND_BITS,
                cells: CellAssignment::Uniform(AdderKind::Ama5),
                port_map: PortMap::SumCarryPp,
                cpa: CpaKind::Ripple { kind: AdderKind::Ama5, swap: true },
            },
        );
        let mut rng = rng();
        for m in [crate::heap::heap_multiplier(), ablation] {
            let n = 197; // crosses three 64-lane blocks with a ragged tail
            let mut a: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            let mut b: Vec<f32> = (0..n).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            for (i, v) in [
                (3, f32::NAN),
                (64, f32::INFINITY),
                (65, 0.0),
                (66, -0.0),
                (100, f32::from_bits(1)), // denormal
                (196, f32::NEG_INFINITY),
            ] {
                if i % 2 == 1 {
                    a[i] = v;
                } else {
                    b[i] = v;
                }
            }

            let mut out = vec![0.0f32; n];
            m.multiply_slice(&a, &b, &mut out);
            for i in 0..n {
                let want = m.multiply(a[i], b[i]);
                assert_eq!(out[i].to_bits(), want.to_bits(), "{} mul[{i}]", m.name());
            }

            let got_dot = m.dot_accumulate(&a, &b);
            let mut want_dot = 0.0f32;
            for i in 0..n {
                want_dot = simd::nan_stable_add(want_dot, m.multiply(a[i], b[i]));
            }
            assert_eq!(got_dot.to_bits(), want_dot.to_bits(), "{} dot", m.name());

            for shared in [0.77f32, -1.5, 0.0, f32::INFINITY] {
                let mut want = vec![0.25f32; n];
                for i in 0..n {
                    want[i] = simd::nan_stable_add(want[i], m.multiply(shared, b[i]));
                }
                for class in [simd::classify_row(&b), RowClass::Special] {
                    let mut acc = vec![0.25f32; n];
                    m.batch_kernel().axpy(shared, &b, class, &mut acc);
                    for i in 0..n {
                        assert_eq!(
                            acc[i].to_bits(),
                            want[i].to_bits(),
                            "{} axpy[{i}] shared={shared} {class:?}",
                            m.name()
                        );
                    }
                }
            }

            // One-row gemm_tile (the fused multi-term sweep): k not a
            // multiple of the wide width, columns crossing a block boundary
            // with a ragged tail, special left terms breaking up the wide
            // runs mid-stream, and specials in the right-hand rows — all
            // must match the scalar loop accumulated with `k` ascending.
            let (terms, cols) = (21, 79);
            let mut ta: Vec<f32> = (0..terms).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            ta[4] = 0.0;
            ta[5] = f32::NAN;
            ta[13] = f32::from_bits(2); // denormal splits a would-be wide run
            let mut tb: Vec<f32> = (0..terms * cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
            tb[7] = f32::INFINITY;
            tb[cols + 64] = 0.0;
            tb[3 * cols + 11] = f32::NAN;
            tb[terms * cols - 1] = f32::from_bits(1);
            let mut seq = vec![0.125f32; cols];
            for t in 0..terms {
                for i in 0..cols {
                    seq[i] = simd::nan_stable_add(seq[i], m.multiply(ta[t], tb[t * cols + i]));
                }
            }
            let mut fused = vec![0.125f32; cols];
            m.batch_kernel().gemm_tile(&ta, &tb, cols, RowClass::Special, &mut fused, cols);
            for i in 0..cols {
                assert_eq!(fused[i].to_bits(), seq[i].to_bits(), "{} fused[{i}]", m.name());
            }
        }
    }

    /// HEAP has no fast path; both entry points run the same gates.
    #[test]
    fn heap_has_no_fast_path_divergence() {
        let m = crate::heap::heap_multiplier();
        let mut rng = rng();
        for _ in 0..2_000 {
            let a = rng.gen_range(-2.0f32..2.0);
            let b = rng.gen_range(-2.0f32..2.0);
            assert_eq!(m.multiply(a, b).to_bits(), m.multiply_gate_level(a, b).to_bits());
        }
    }
}
