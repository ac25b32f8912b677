//! Bit-sliced (word-parallel) evaluation of gate-level array multipliers.
//!
//! A carry-save array-multiplier row applies the *same* cell function to every
//! column independently, so one row of up to 64 cells can be simulated with a
//! handful of word-level boolean operations instead of 64 per-cell calls
//! ([`eval_tt`]). [`BitslicedArray`] turns that around: instead of slicing
//! *columns* of one multiply into a word, it slices **64 independent operand
//! pairs** into bit-planes (one `u64` per significand bit position), sweeps
//! the adder rows once per plane set, and transposes the product planes back.
//! Every word-level boolean op then retires 64 multiplies' worth of one gate,
//! which is what gives gate-level wirings — the kinds with no closed form
//! and no precomputed table — SIMD-class throughput while staying
//! bit-identical to [`ArrayMultiplier::multiply`](crate::ArrayMultiplier::multiply).

use crate::array::{ArrayMultiplierSpec, CellAssignment, CpaKind, PortMap};

/// Evaluate an 8-entry truth table bitwise across three input words.
///
/// `tt` is indexed by `(cin << 2) | (b << 1) | a`, matching
/// [`AdderKind::sum_tt`](crate::AdderKind::sum_tt). Bit `k` of the result is
/// the table output for the bit-`k` lanes of `a`, `b`, and `cin`.
///
/// Common tables are special-cased to their minimal boolean forms; arbitrary
/// tables fall back to a minterm expansion.
///
/// # Examples
///
/// ```
/// use da_arith::bitslice::eval_tt;
/// use da_arith::adders::EXACT_SUM_TT;
///
/// // XOR-parity of three words, lane by lane.
/// assert_eq!(eval_tt(EXACT_SUM_TT, 0b1100, 0b1010, 0b0110), 0b1100 ^ 0b1010 ^ 0b0110);
/// ```
#[inline]
pub fn eval_tt(tt: u8, a: u64, b: u64, cin: u64) -> u64 {
    match tt {
        0b0000_0000 => 0,
        0b1111_1111 => !0,
        0b1010_1010 => a,                            // A
        0b0101_0101 => !a,                           // !A
        0b1100_1100 => b,                            // B
        0b0011_0011 => !b,                           // !B
        0b1111_0000 => cin,                          // Cin
        0b0000_1111 => !cin,                         // !Cin
        0b1001_0110 => a ^ b ^ cin,                  // exact Sum
        0b0110_1001 => !(a ^ b ^ cin),               // !Sum
        0b1110_1000 => (a & b) | (cin & (a | b)),    // exact Cout (majority)
        0b0001_0111 => !((a & b) | (cin & (a | b))), // !Cout (AMA1 sum)
        _ => eval_tt_minterms(tt, a, b, cin),
    }
}

/// Generic minterm-expansion evaluation of an arbitrary 3-input truth table.
///
/// Used as the fallback for tables without a special-cased boolean form; it is
/// exhaustively checked against [`eval_tt`] in tests.
pub fn eval_tt_minterms(tt: u8, a: u64, b: u64, cin: u64) -> u64 {
    let mut out = 0u64;
    for idx in 0..8u8 {
        if (tt >> idx) & 1 == 1 {
            let ta = if idx & 1 == 1 { a } else { !a };
            let tb = if (idx >> 1) & 1 == 1 { b } else { !b };
            let tc = if (idx >> 2) & 1 == 1 { cin } else { !cin };
            out |= ta & tb & tc;
        }
    }
    out
}

/// Transpose a 64×64 bit matrix in place.
///
/// Bit `i` of `a[j]` afterwards equals bit `j` of `a[i]` beforehand, i.e. row
/// `j` of the result collects bit `j` of every input word. The operation is
/// an involution: applying it twice restores the input.
pub fn transpose64(a: &mut [u64; 64]) {
    // One loop per stage with a constant swap distance: the paired rows
    // `a[i]` / `a[i + J]` are contiguous runs, so the wide stages
    // autovectorize (the generic computed-stride loop does not).
    macro_rules! stage {
        ($j:literal, $m:literal) => {
            let mut k = 0usize;
            while k < 64 {
                for i in k..k + $j {
                    let t = ((a[i] >> $j) ^ a[i + $j]) & $m;
                    a[i] ^= t << $j;
                    a[i + $j] ^= t;
                }
                k += 2 * $j;
            }
        };
    }
    stage!(32, 0x0000_0000_FFFF_FFFFu64);
    stage!(16, 0x0000_FFFF_0000_FFFFu64);
    stage!(8, 0x00FF_00FF_00FF_00FFu64);
    stage!(4, 0x0F0F_0F0F_0F0F_0F0Fu64);
    stage!(2, 0x3333_3333_3333_3333u64);
    stage!(1, 0x5555_5555_5555_5555u64);
}

/// The number of operand pairs one [`BitslicedArray::multiply_block`] call
/// retires — one per bit lane of a `u64` plane word.
pub const BITSLICE_LANES: usize = 64;

/// Sub-blocks fused by one [`BitslicedArray::multiply_block8_shared`] call:
/// the sweep runs on `[u64; 8]` plane vectors, which fill one AVX-512
/// register (two AVX2 registers) per plane.
pub const BITSLICE_WIDE: usize = 8;

/// Lanes retired by one [`BitslicedArray::multiply_block8_shared`] call.
pub const BITSLICE_WIDE_LANES: usize = BITSLICE_WIDE * BITSLICE_LANES;

/// Which vector tier the wide sweep runs on (probed once, like the
/// [`crate::quantized`] gather dispatch).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq)]
enum SweepLevel {
    Avx512,
    Avx2,
    Scalar,
}

#[cfg(target_arch = "x86_64")]
fn sweep_level() -> SweepLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SweepLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx512f") {
            SweepLevel::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SweepLevel::Avx2
        } else {
            SweepLevel::Scalar
        }
    })
}

// The envelopes contain no intrinsics: they inline the generic body under a
// wider target feature so the `[u64; 8]` plane ops compile to 256-/512-bit
// boolean instructions. Bit-exactness is unconditional — the instruction
// selection changes, the computed planes do not.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block8_avx2(
    arr: &BitslicedArray,
    a: &[u64; BITSLICE_WIDE],
    b: &[u64; BITSLICE_WIDE_LANES],
) -> [u64; BITSLICE_WIDE_LANES] {
    arr.block8_body(a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn block8_avx512(
    arr: &BitslicedArray,
    a: &[u64; BITSLICE_WIDE],
    b: &[u64; BITSLICE_WIDE_LANES],
) -> [u64; BITSLICE_WIDE_LANES] {
    arr.block8_body(a, b)
}

/// A reduction-cell function expressed in the *canonical* input order
/// `(pp, sum, carry)`, after folding the spec's [`PortMap`] into the truth
/// tables. Index convention: `(carry << 2) | (sum << 1) | pp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellOp {
    /// `sum_out = sum`, `cout = pp` — AMA5 under the canonical wiring. The
    /// cell is a pure pass-through, so a bit-sliced column costs one move.
    PassThrough,
    /// `sum_out = sum`, `cout = maj(pp, sum, carry)` — AMA4 canonical.
    SumPassCarryMaj,
    /// `sum_out = pp ^ sum ^ carry`, `cout = pp` — AMA2 canonical.
    SumXorCarryPp,
    /// Exact full adder: `xor3` / `maj`.
    Exact,
    /// Anything else — evaluated through [`eval_tt`] on the folded tables.
    Tables { sum_tt: u8, cout_tt: u8 },
}

const TT_PP: u8 = 0b1010_1010; // out = pp     (canonical index order)
const TT_S: u8 = 0b1100_1100; // out = sum
const TT_XOR3: u8 = 0b1001_0110;
const TT_MAJ: u8 = 0b1110_1000;

/// Fold a cell's `(sum_tt, cout_tt)` (indexed over its *ports* `(A, B, Cin)`)
/// through the wiring `pm` into tables indexed over the canonical nets
/// `(pp, sum, carry)`.
fn fold_port_map(sum_tt: u8, cout_tt: u8, pm: PortMap) -> (u8, u8) {
    let mut es = 0u8;
    let mut ec = 0u8;
    for idx in 0..8u8 {
        let pp = (idx & 1) as u64;
        let s = ((idx >> 1) & 1) as u64;
        let c = ((idx >> 2) & 1) as u64;
        let (a, b, cin) = pm.assign(pp, s, c);
        let oidx = ((cin << 2) | (b << 1) | a) as u8;
        es |= ((sum_tt >> oidx) & 1) << idx;
        ec |= ((cout_tt >> oidx) & 1) << idx;
    }
    (es, ec)
}

fn classify(sum_tt: u8, cout_tt: u8, pm: PortMap) -> CellOp {
    let (es, ec) = fold_port_map(sum_tt, cout_tt, pm);
    match (es, ec) {
        (TT_S, TT_PP) => CellOp::PassThrough,
        (TT_S, TT_MAJ) => CellOp::SumPassCarryMaj,
        (TT_XOR3, TT_PP) => CellOp::SumXorCarryPp,
        (TT_XOR3, TT_MAJ) => CellOp::Exact,
        _ => CellOp::Tables { sum_tt: es, cout_tt: ec },
    }
}

// Elementwise boolean ops over `W` plane words. Written as fixed-size array
// maps so the sweep instantiated at `W > 1` autovectorizes; at `W = 1` they
// compile to the plain scalar ops.
#[inline(always)]
fn vand<const W: usize>(a: [u64; W], b: [u64; W]) -> [u64; W] {
    std::array::from_fn(|k| a[k] & b[k])
}

#[inline(always)]
fn vxor3<const W: usize>(a: [u64; W], b: [u64; W], c: [u64; W]) -> [u64; W] {
    std::array::from_fn(|k| a[k] ^ b[k] ^ c[k])
}

#[inline(always)]
fn vmaj<const W: usize>(a: [u64; W], b: [u64; W], c: [u64; W]) -> [u64; W] {
    std::array::from_fn(|k| (a[k] & b[k]) | (c[k] & (a[k] | b[k])))
}

#[inline(always)]
fn cell_eval_w<const W: usize>(
    op: CellOp,
    pp: [u64; W],
    sj: [u64; W],
    cj: [u64; W],
) -> ([u64; W], [u64; W]) {
    match op {
        CellOp::PassThrough => (sj, pp),
        CellOp::SumPassCarryMaj => (sj, vmaj(pp, sj, cj)),
        CellOp::SumXorCarryPp => (vxor3(pp, sj, cj), pp),
        CellOp::Exact => (vxor3(pp, sj, cj), vmaj(pp, sj, cj)),
        CellOp::Tables { sum_tt, cout_tt } => (
            std::array::from_fn(|k| eval_tt(sum_tt, pp[k], sj[k], cj[k])),
            std::array::from_fn(|k| eval_tt(cout_tt, pp[k], sj[k], cj[k])),
        ),
    }
}

#[cfg(test)]
#[inline(always)]
fn cell_eval(op: CellOp, pp: u64, sj: u64, cj: u64) -> (u64, u64) {
    let (s, c) = cell_eval_w(op, [pp], [sj], [cj]);
    (s[0], c[0])
}

/// The final carry-propagate adder, pre-lowered to bit-plane form. CPA cells
/// take their ports directly — `(A, B, Cin)` = `(s, c, ripple_carry)` — so
/// their truth tables are classified with the identity wiring; [`cell_eval`]
/// then runs them without any per-column table dispatch (an AMA5 CPA column
/// is two moves).
#[derive(Debug, Clone)]
enum CpaSlices {
    /// Behavioural exact merge (`s + c`), rippled over planes.
    Exact,
    /// Gate-level ripple from one cell design; ports are `(A, B, Cin)` =
    /// `(s, c, ripple)`, or `(c, s, ripple)` when swapped.
    Ripple { op: CellOp, swap: bool },
    /// HEAP-style CPA: column `k` reuses the array's column-`k` cell design.
    PerColumn { ops: Vec<CellOp> },
}

/// A bit-sliced evaluator for an [`ArrayMultiplierSpec`]: 64 independent
/// multiplies per call, bit-identical to the scalar
/// [`ArrayMultiplier`](crate::ArrayMultiplier) built from the same spec.
///
/// # Examples
///
/// ```
/// use da_arith::{ArrayMultiplier, ArrayMultiplierSpec, BitslicedArray};
///
/// let spec = ArrayMultiplierSpec::ax_mantissa(8);
/// let scalar = ArrayMultiplier::new(spec.clone());
/// let sliced = BitslicedArray::new(&spec);
/// let a = [173u64; 64];
/// let mut b = [0u64; 64];
/// for (l, slot) in b.iter_mut().enumerate() {
///     *slot = (l as u64) * 4 % 256;
/// }
/// let prod = sliced.multiply_block(&a, &b);
/// for l in 0..64 {
///     assert_eq!(prod[l], scalar.multiply(a[l], b[l]));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct BitslicedArray {
    width: usize,
    /// Maximal runs of columns sharing one cell function: `(op, start, end)`.
    runs: Vec<(CellOp, usize, usize)>,
    cpa: CpaSlices,
}

impl BitslicedArray {
    /// Lower a spec into bit-plane form.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ArrayMultiplier::new`](crate::ArrayMultiplier::new): `width` outside
    /// `1..=31` or a `PerColumn` assignment shorter than `2 * width`.
    pub fn new(spec: &ArrayMultiplierSpec) -> Self {
        assert!((1..=31).contains(&spec.width), "width must be in 1..=31, got {}", spec.width);
        if let CellAssignment::PerColumn(v) = &spec.cells {
            assert!(
                v.len() >= 2 * spec.width,
                "PerColumn assignment covers {} columns, need {}",
                v.len(),
                2 * spec.width
            );
        }
        let cols = 2 * spec.width;
        let mut runs: Vec<(CellOp, usize, usize)> = Vec::new();
        for j in 0..cols {
            let k = spec.cells.kind_at(j);
            let op = classify(k.sum_tt(), k.cout_tt(), spec.port_map);
            match runs.last_mut() {
                Some((last, _, end)) if *last == op && *end == j => *end = j + 1,
                _ => runs.push((op, j, j + 1)),
            }
        }
        // CPA ports are direct, so classification uses the identity wiring.
        let cpa_op =
            |k: crate::adders::AdderKind| classify(k.sum_tt(), k.cout_tt(), PortMap::PpSumCarry);
        let cpa = match spec.cpa {
            CpaKind::Exact => CpaSlices::Exact,
            CpaKind::Ripple { kind, swap } => CpaSlices::Ripple { op: cpa_op(kind), swap },
            CpaKind::RipplePerColumn => CpaSlices::PerColumn {
                ops: (0..cols).map(|k| cpa_op(spec.cells.kind_at(k))).collect(),
            },
        };
        BitslicedArray { width: spec.width, runs, cpa }
    }

    /// Operand bit width (products are `2 * width` bits).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Multiply 64 operand pairs through the simulated array at once.
    ///
    /// Lane `l` of the result is exactly
    /// `ArrayMultiplier::new(spec).multiply(a[l], b[l])`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any operand exceeds `width` bits.
    pub fn multiply_block(
        &self,
        a: &[u64; BITSLICE_LANES],
        b: &[u64; BITSLICE_LANES],
    ) -> [u64; BITSLICE_LANES] {
        let w = self.width;

        // Both operands fit below bit 32 (width <= 31), so one transposed
        // 64x64 matrix yields both plane sets: planes[0..w] are the bits of
        // `a`, planes[32..32 + w] the bits of `b`.
        let mut planes = [0u64; 64];
        for l in 0..BITSLICE_LANES {
            debug_assert!(a[l] >> w == 0, "operand a exceeds width in lane {l}");
            debug_assert!(b[l] >> w == 0, "operand b exceeds width in lane {l}");
            planes[l] = a[l] | (b[l] << 32);
        }
        transpose64(&mut planes);
        let mut ap = [[0u64; 1]; 32];
        let mut bp = [[0u64; 1]; 32];
        for p in 0..32 {
            ap[p] = [planes[p]];
            bp[p] = [planes[32 + p]];
        }
        let outp = self.sweep_planes(&ap, &bp);
        let mut out = [0u64; BITSLICE_LANES];
        for (o, p) in out.iter_mut().zip(&outp) {
            *o = p[0];
        }
        transpose64(&mut out);
        out
    }

    /// [`Self::multiply_block`] with one operand shared across all 64 lanes.
    ///
    /// The shared operand's bit-planes are pure broadcasts (`!0` or `0`), so
    /// only the varying side pays a transpose — this is the block the
    /// batched `axpy` paths run, where the multiplicand is constant over the
    /// whole row sweep.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any operand exceeds `width` bits.
    pub fn multiply_block_shared(
        &self,
        a: u64,
        b: &[u64; BITSLICE_LANES],
    ) -> [u64; BITSLICE_LANES] {
        let w = self.width;
        debug_assert!(a >> w == 0, "shared operand exceeds width");
        let mut tb = *b;
        for (l, y) in tb.iter().enumerate() {
            debug_assert!(y >> w == 0, "operand b exceeds width in lane {l}");
        }
        transpose64(&mut tb);
        let mut ap = [[0u64; 1]; 32];
        let mut bp = [[0u64; 1]; 32];
        for p in 0..32 {
            ap[p] = [0u64.wrapping_sub((a >> p) & 1)];
            bp[p] = [tb[p]];
        }
        let outp = self.sweep_planes(&ap, &bp);
        let mut out = [0u64; BITSLICE_LANES];
        for (o, p) in out.iter_mut().zip(&outp) {
            *o = p[0];
        }
        transpose64(&mut out);
        out
    }

    /// Eight [`Self::multiply_block_shared`] calls fused into one sweep:
    /// sub-block `t` multiplies its own shared operand `a[t]` against lanes
    /// `b[64 t..64 (t + 1)]`, and the boolean work runs on `[u64; 8]` plane
    /// vectors. The body is compiled three times — baseline, AVX2, AVX-512 —
    /// and runtime-dispatched like the [`crate::quantized`] gather kernels,
    /// so the plane vectors map onto the widest registers the CPU has. This
    /// is the GEMM inner loop's shape: eight consecutive reduction terms of
    /// one output row per call.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any operand exceeds `width` bits.
    pub fn multiply_block8_shared(
        &self,
        a: &[u64; BITSLICE_WIDE],
        b: &[u64; BITSLICE_WIDE_LANES],
    ) -> [u64; BITSLICE_WIDE_LANES] {
        #[cfg(target_arch = "x86_64")]
        {
            match sweep_level() {
                // SAFETY: `sweep_level` just probed the matching feature.
                SweepLevel::Avx512 => return unsafe { block8_avx512(self, a, b) },
                SweepLevel::Avx2 => return unsafe { block8_avx2(self, a, b) },
                SweepLevel::Scalar => {}
            }
        }
        self.block8_body(a, b)
    }

    /// The feature-agnostic body behind [`Self::multiply_block8_shared`]:
    /// `#[inline(always)]` so the `#[target_feature]` envelopes inline it and
    /// the autovectorizer sees the whole transpose + sweep under AVX2/AVX-512.
    #[inline(always)]
    fn block8_body(
        &self,
        a: &[u64; BITSLICE_WIDE],
        b: &[u64; BITSLICE_WIDE_LANES],
    ) -> [u64; BITSLICE_WIDE_LANES] {
        let w = self.width;
        let mut ap = [[0u64; BITSLICE_WIDE]; 32];
        for t in 0..BITSLICE_WIDE {
            debug_assert!(a[t] >> w == 0, "shared operand {t} exceeds width");
            for (p, plane) in ap.iter_mut().enumerate().take(w) {
                plane[t] = 0u64.wrapping_sub((a[t] >> p) & 1);
            }
        }
        let mut bp = [[0u64; BITSLICE_WIDE]; 32];
        for t in 0..BITSLICE_WIDE {
            let mut tb = [0u64; 64];
            tb.copy_from_slice(&b[t * BITSLICE_LANES..(t + 1) * BITSLICE_LANES]);
            transpose64(&mut tb);
            for (p, plane) in bp.iter_mut().enumerate() {
                plane[t] = tb[p];
            }
        }
        let outp = self.sweep_planes(&ap, &bp);
        let mut out = [0u64; BITSLICE_WIDE_LANES];
        for t in 0..BITSLICE_WIDE {
            let mut tb = [0u64; 64];
            for (x, p) in tb.iter_mut().zip(&outp) {
                *x = p[t];
            }
            transpose64(&mut tb);
            out[t * BITSLICE_LANES..(t + 1) * BITSLICE_LANES].copy_from_slice(&tb);
        }
        out
    }

    /// The plane-form array sweep: operand bit-planes in, product bit-planes
    /// out (plane `k` holds product bit `k` of every lane, `W` words per
    /// plane for `64 W` lanes).
    #[inline(always)]
    fn sweep_planes<const W: usize>(
        &self,
        ap: &[[u64; W]; 32],
        bp: &[[u64; W]; 32],
    ) -> [[u64; W]; 64] {
        let w = self.width;
        let cols = 2 * w;

        // Zero-padded partial-product source: row `i` reads a-plane `j - i`
        // at column `j` (`pp = a_{j-i} & b_i` inside the band `i <= j < i+w`,
        // zero outside). Padding 32 zero planes on either side makes that
        // read unconditional, so the sweeps carry no band-edge branches.
        let mut apad = [[0u64; W]; 96];
        apad[32..64].copy_from_slice(ap);

        // Sum planes cover columns 0..cols; carry planes 0..=cols because the
        // scalar array's `c = nc << 1` can push a bit to position `2w`.
        let mut s = [[0u64; W]; 62];
        let mut c = [[0u64; W]; 63];

        // Row 0 is the raw first partial product; no adder cells exist there.
        for j in 0..w {
            s[j] = vand(ap[j], bp[0]);
        }
        for i in 1..w {
            let bi = bp[i];
            let last = i == w - 1;
            // `base[j]` is the pp source for column j this row.
            let base = &apad[32 - i..32 - i + cols];
            // Carry out of column j - 1 this row becomes carry *into* column
            // j next row (the scalar `c = nc << 1`), threaded as `carry_next`.
            let mut carry_next = [0u64; W];
            for &(op, start, end) in &self.runs {
                if op == CellOp::PassThrough && !last {
                    // AMA5 columns drop incoming sum and carry entirely, and
                    // the run's own carry planes are only read by the final
                    // merge — so their writes are deferred to the last row
                    // and only the run's exit carry (pp of its last column)
                    // is threaded onward.
                    carry_next = vand(base[end - 1], bi);
                } else if op == CellOp::PassThrough {
                    for (cj, &aw) in c[start..end].iter_mut().zip(&base[start..end]) {
                        *cj = carry_next;
                        carry_next = vand(aw, bi);
                    }
                } else {
                    for ((cj, sj), &aw) in c[start..end]
                        .iter_mut()
                        .zip(s[start..end].iter_mut())
                        .zip(&base[start..end])
                    {
                        let pp = vand(aw, bi);
                        let old = *cj;
                        *cj = carry_next;
                        let (ns, nc) = cell_eval_w(op, pp, *sj, old);
                        *sj = ns;
                        carry_next = nc;
                    }
                }
            }
            c[cols] = carry_next;
        }

        let mut outp = [[0u64; W]; 64];
        match &self.cpa {
            CpaSlices::Exact => {
                // Behavioural `s + c`, rippled across planes; `c` reaches bit
                // `cols`, so the final carry lands at `cols + 1` (<= 63).
                let mut carry = [0u64; W];
                for k in 0..=cols {
                    let x = if k < cols { s[k] } else { [0u64; W] };
                    let y = c[k];
                    outp[k] = vxor3(x, y, carry);
                    carry = vmaj(x, y, carry);
                }
                outp[cols + 1] = carry;
            }
            CpaSlices::Ripple { op, swap } => {
                // Mirrors the scalar CpaKind::Ripple: 2w + 1 cells, the final
                // ripple carry is discarded.
                let mut carry = [0u64; W];
                for k in 0..=cols {
                    let x = if k < cols { s[k] } else { [0u64; W] };
                    let y = c[k];
                    let (pa, pb) = if *swap { (y, x) } else { (x, y) };
                    let (o, nc) = cell_eval_w(*op, pa, pb, carry);
                    outp[k] = o;
                    carry = nc;
                }
            }
            CpaSlices::PerColumn { ops } => {
                // Mirrors CpaKind::RipplePerColumn: 2w cells with direct
                // ports, carry-plane bit `2w` unused, final carry promoted to
                // bit `2w`.
                let mut carry = [0u64; W];
                for (((o, &op), &x), &y) in
                    outp[..cols].iter_mut().zip(ops).zip(&s[..cols]).zip(&c[..cols])
                {
                    let (bit, nc) = cell_eval_w(op, x, y, carry);
                    *o = bit;
                    carry = nc;
                }
                outp[cols] = carry;
            }
        }
        outp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayMultiplier, CpaKind};
    use crate::AdderKind;
    use rand::{Rng, SeedableRng};

    /// Exhaustively compare the fast path against the minterm fallback for
    /// every truth table used by any adder design, over random words.
    #[test]
    fn fast_paths_match_minterm_expansion() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut tables: Vec<u8> =
            AdderKind::ALL.iter().flat_map(|k| [k.sum_tt(), k.cout_tt()]).collect();
        tables.extend([0x00, 0xFF, 0xF0, 0x0F, 0x33, 0xCC, 0x69, 0x96, 0x17, 0x3A]);
        for tt in tables {
            for _ in 0..64 {
                let (a, b, c) = (rng.gen::<u64>(), rng.gen::<u64>(), rng.gen::<u64>());
                assert_eq!(
                    eval_tt(tt, a, b, c),
                    eval_tt_minterms(tt, a, b, c),
                    "table {tt:#010b} diverged"
                );
            }
        }
    }

    /// Bit-sliced evaluation must agree with per-bit [`AdderKind::eval`].
    #[test]
    fn bitslice_matches_scalar_eval() {
        for kind in AdderKind::ALL {
            for idx in 0u8..8 {
                let a = (idx & 1) as u64;
                let b = ((idx >> 1) & 1) as u64;
                let c = ((idx >> 2) & 1) as u64;
                let (sum, cout) = kind.eval(a as u8, b as u8, c as u8);
                assert_eq!(eval_tt(kind.sum_tt(), a, b, c) & 1, sum as u64);
                assert_eq!(eval_tt(kind.cout_tt(), a, b, c) & 1, cout as u64);
            }
        }
    }

    #[test]
    fn all_lanes_evaluated_independently() {
        // Alternating lanes exercise different truth-table rows simultaneously.
        let a = 0xAAAA_AAAA_AAAA_AAAA;
        let b = 0xCCCC_CCCC_CCCC_CCCC;
        let c = 0xF0F0_F0F0_F0F0_F0F0;
        let sum = eval_tt(crate::adders::EXACT_SUM_TT, a, b, c);
        for lane in 0..64 {
            let (la, lb, lc) = ((a >> lane) & 1, (b >> lane) & 1, (c >> lane) & 1);
            assert_eq!((sum >> lane) & 1, la ^ lb ^ lc, "lane {lane}");
        }
    }

    #[test]
    fn transpose_maps_every_bit_to_its_mirror() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut t = original;
        transpose64(&mut t);
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!((t[j] >> i) & 1, (original[i] >> j) & 1, "({i},{j})");
            }
        }
        // Involution: transposing again restores the input.
        transpose64(&mut t);
        assert_eq!(t, original);
    }

    /// `classify` + `cell_eval` must reproduce the raw truth-table pair for
    /// every table combination and wiring (the specialized ops are shortcuts,
    /// not approximations).
    #[test]
    fn cell_classification_matches_raw_tables() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let words: [u64; 4] = [0xAAAA_AAAA_AAAA_AAAA, 0xF0F0_F0F0_F0F0_F0F0, rng.gen(), rng.gen()];
        for pm in PortMap::ALL {
            for kind in AdderKind::ALL {
                let op = classify(kind.sum_tt(), kind.cout_tt(), pm);
                let (es, ec) = fold_port_map(kind.sum_tt(), kind.cout_tt(), pm);
                for &pp in &words {
                    for &sv in &words {
                        for &cv in &words {
                            let (ns, nc) = cell_eval(op, pp, sv, cv);
                            assert_eq!(ns, eval_tt_minterms(es, pp, sv, cv), "{kind:?} {pm} sum");
                            assert_eq!(nc, eval_tt_minterms(ec, pp, sv, cv), "{kind:?} {pm} cout");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_wiring_classifies_heap_cells_to_fast_ops() {
        let pm = PortMap::PpSumCarry;
        let op = |k: AdderKind| classify(k.sum_tt(), k.cout_tt(), pm);
        assert_eq!(op(AdderKind::Ama5), CellOp::PassThrough);
        assert_eq!(op(AdderKind::Ama4), CellOp::SumPassCarryMaj);
        assert_eq!(op(AdderKind::Ama2), CellOp::SumXorCarryPp);
        assert_eq!(op(AdderKind::Exact), CellOp::Exact);
    }

    fn assert_block_matches_scalar(spec: &ArrayMultiplierSpec, seed: u64) {
        let scalar = ArrayMultiplier::new(spec.clone());
        let sliced = BitslicedArray::new(spec);
        let mask = (1u64 << spec.width) - 1;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for round in 0..8 {
            let mut a = [0u64; 64];
            let mut b = [0u64; 64];
            for l in 0..64 {
                // Mix random lanes with adversarial corners.
                (a[l], b[l]) = match (round, l) {
                    (0, 0) => (0, 0),
                    (0, 1) => (mask, mask),
                    (0, 2) => (mask, 0),
                    (0, 3) => (0, mask),
                    (0, 4) => (1, mask),
                    (0, 5) => (mask, 1),
                    _ => (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask),
                };
            }
            let prod = sliced.multiply_block(&a, &b);
            for l in 0..64 {
                assert_eq!(
                    prod[l],
                    scalar.multiply(a[l], b[l]),
                    "lane {l}: a={} b={} spec={spec:?}",
                    a[l],
                    b[l]
                );
            }

            // The shared-operand and fused 4-block entries must agree too.
            let shared = sliced.multiply_block_shared(a[0], &b);
            for l in 0..64 {
                assert_eq!(shared[l], scalar.multiply(a[0], b[l]), "shared lane {l}");
            }
            let a8: [u64; BITSLICE_WIDE] = std::array::from_fn(|t| a[t]);
            let mut b8 = [0u64; BITSLICE_WIDE_LANES];
            for t in 0..BITSLICE_WIDE {
                for l in 0..64 {
                    b8[t * 64 + l] = b[(l + 17 * t) % 64];
                }
            }
            let wide = sliced.multiply_block8_shared(&a8, &b8);
            for t in 0..BITSLICE_WIDE {
                for l in 0..64 {
                    assert_eq!(
                        wide[t * 64 + l],
                        scalar.multiply(a8[t], b8[t * 64 + l]),
                        "wide block {t} lane {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn bitsliced_exact_matches_scalar_across_widths() {
        for width in [1usize, 2, 3, 8, 13, 24, 31] {
            assert_block_matches_scalar(&ArrayMultiplierSpec::exact(width), width as u64);
        }
    }

    #[test]
    fn bitsliced_ax_mantissa_matches_scalar() {
        for width in [8usize, 12, 24] {
            assert_block_matches_scalar(
                &ArrayMultiplierSpec::ax_mantissa(width),
                100 + width as u64,
            );
        }
    }

    #[test]
    fn bitsliced_heap_matches_scalar() {
        assert_block_matches_scalar(&crate::heap::heap_mantissa_spec(), 17);
    }

    #[test]
    fn bitsliced_matches_scalar_for_every_port_map_and_cell() {
        for pm in PortMap::ALL {
            for kind in AdderKind::ALL {
                let spec = ArrayMultiplierSpec {
                    width: 11,
                    cells: CellAssignment::Uniform(kind),
                    port_map: pm,
                    cpa: CpaKind::Exact,
                };
                assert_block_matches_scalar(&spec, 31);
            }
        }
    }

    #[test]
    fn bitsliced_matches_scalar_for_every_cpa() {
        let cells = CellAssignment::PerColumn(
            (0..24)
                .map(|j| match j % 7 {
                    0 => AdderKind::Ama1,
                    1 => AdderKind::Ama2,
                    2 => AdderKind::Ama3,
                    3 => AdderKind::Ama4,
                    4 => AdderKind::Ama5,
                    _ => AdderKind::Exact,
                })
                .collect(),
        );
        for cpa in [
            CpaKind::Exact,
            CpaKind::Ripple { kind: AdderKind::Ama5, swap: false },
            CpaKind::Ripple { kind: AdderKind::Ama2, swap: true },
            CpaKind::Ripple { kind: AdderKind::Exact, swap: false },
            CpaKind::RipplePerColumn,
        ] {
            let spec = ArrayMultiplierSpec {
                width: 12,
                cells: cells.clone(),
                port_map: PortMap::PpSumCarry,
                cpa,
            };
            assert_block_matches_scalar(&spec, 47);
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=31")]
    fn rejects_zero_width() {
        let _ = BitslicedArray::new(&ArrayMultiplierSpec::exact(0));
    }

    /// Perf probe (not a correctness test): run with
    /// `cargo test -p da_arith --release timing_probe -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn timing_probe() {
        use std::time::Instant;
        let sliced = BitslicedArray::new(&crate::heap::heap_mantissa_spec());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a: [u64; 64] = std::array::from_fn(|_| rng.gen::<u64>() & 0xFF_FFFF);
        let b: [u64; 64] = std::array::from_fn(|_| rng.gen::<u64>() & 0xFF_FFFF);
        let iters = 500_000u32;

        let mut t = a;
        let start = Instant::now();
        for _ in 0..iters {
            transpose64(std::hint::black_box(&mut t));
        }
        let per = start.elapsed().as_secs_f64() / iters as f64;
        println!("transpose64:    {:8.1} ns", per * 1e9);

        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..iters {
            let p = sliced.multiply_block(std::hint::black_box(&a), std::hint::black_box(&b));
            acc ^= p[0];
        }
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        println!(
            "multiply_block: {:8.1} ns/block ({:.2} MMAC/s raw)",
            dt / iters as f64 * 1e9,
            iters as f64 * 64.0 / dt / 1e6
        );

        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..iters {
            let p =
                sliced.multiply_block_shared(std::hint::black_box(a[0]), std::hint::black_box(&b));
            acc ^= p[0];
        }
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        println!(
            "block_shared:   {:8.1} ns/block ({:.2} MMAC/s raw)",
            dt / iters as f64 * 1e9,
            iters as f64 * 64.0 / dt / 1e6
        );

        let a8: [u64; BITSLICE_WIDE] = std::array::from_fn(|t| a[t]);
        let mut b8 = [0u64; BITSLICE_WIDE_LANES];
        for (t, chunk) in b8.chunks_mut(64).enumerate() {
            chunk.copy_from_slice(&b);
            chunk[0] = a[t];
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..iters {
            let p =
                sliced.multiply_block8_shared(std::hint::black_box(&a8), std::hint::black_box(&b8));
            acc ^= p[0];
        }
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(acc);
        println!(
            "block8_shared:  {:8.1} ns/8blocks ({:.2} MMAC/s raw)",
            dt / iters as f64 * 1e9,
            iters as f64 * 512.0 / dt / 1e6
        );
    }
}
