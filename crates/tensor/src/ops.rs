//! Linear-algebra kernels: matrix multiplication and convolution lowering.
//!
//! Every exact `f32` GEMM in the workspace runs on one micro-kernel,
//! [`gemm_acc`]: `out[i][j] += Σ_k a[i][k]·b[k][j]` with, per output
//! element, `k` ascending, terms where `a[i][k] == 0.0` skipped (NaN is not
//! skipped), and a separate multiply and add. [`matmul`], the compiled
//! plans' native conv and dense steps and the plans' conv input gradient all
//! call it, so they agree bit for bit. It runs on the widest [`GemmTier`]
//! the CPU supports (probed once); the vector tiers hold a [`GEMM_MR`]-row
//! block of accumulators in registers across the whole `k` sweep.

use std::sync::OnceLock;

use crate::Tensor;

/// `C = A · B` for row-major `A: [m, k]`, `B: [k, n]`, on [`gemm_acc`].
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
    gemm_acc(m, k, n, a.data(), (k, 1), b.data(), &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Output rows one [`gemm_acc`] block holds in registers (the vector tiers).
pub const GEMM_MR: usize = 4;

/// An instruction-set body of [`gemm_acc`]. Every tier computes the same
/// per-element operation sequence, so all agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmTier {
    /// The plain `i-k-j` loop, adding `a[i][k]·b[k][..]` to the whole output
    /// row for each `k` (auto-vectorized for the target's baseline, SSE2 on
    /// x86-64), on any target.
    Portable,
    /// `GEMM_MR`×16 blocks of AVX2 registers.
    Avx2,
    /// `GEMM_MR`×32 blocks of AVX-512 registers.
    Avx512,
}

impl GemmTier {
    /// Every tier, narrowest first.
    pub const ALL: [GemmTier; 3] = [GemmTier::Portable, GemmTier::Avx2, GemmTier::Avx512];

    /// Whether this CPU can run the tier.
    pub fn is_supported(self) -> bool {
        match self {
            GemmTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            GemmTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            GemmTier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest supported tier, probed once: the one [`gemm_acc`] runs.
    pub fn best() -> GemmTier {
        static BEST: OnceLock<GemmTier> = OnceLock::new();
        *BEST.get_or_init(|| {
            GemmTier::ALL.into_iter().rev().find(|t| t.is_supported()).unwrap_or(GemmTier::Portable)
        })
    }
}

/// The exact `f32` GEMM: `out[i][j] += Σ_k a[i][k]·b[k][j]` for
/// `i < m`, `j < n`, with `a[i][k]` read at `a[i·rs + k·cs]`
/// (`a_strides = (rs, cs)`, so a transposed operand needs no copy) and
/// row-major `b: [k, n]`, `out: [m, n]`.
///
/// Per output element the terms are added in ascending `k`, each as a
/// rounded product followed by a rounded add, and terms with
/// `a[i][k] == 0.0` are skipped (a NaN `a` is not). That is the
/// `i-k-j` loop `for k { if a != 0 { out += a·b } }` exactly, so the result
/// is bit-identical to it, whatever `out` held before.
///
/// # Panics
///
/// Panics if `b.len() != k·n`, `out.len() != m·n`, or `a` is too short for
/// the strides (an extent or offset that overflows `usize` counts as too
/// long for any slice).
pub fn gemm_acc(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    run_gemm(GemmTier::best(), m, k, n, a, a_strides, b, out);
}

/// [`gemm_acc`] on a chosen tier (conformance tests pin every tier against
/// a scalar reference).
///
/// # Panics
///
/// Panics as [`gemm_acc`] does, or if the CPU does not support `tier`.
pub fn gemm_acc_on(
    tier: GemmTier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_strides: (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    assert!(tier.is_supported(), "this CPU does not support the {tier:?} GEMM tier");
    run_gemm(tier, m, k, n, a, a_strides, b, out);
}

fn run_gemm(
    tier: GemmTier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    // Checked arithmetic: a wrapped product could pass these checks and let
    // the sweeps below read or write out of bounds.
    assert!(k.checked_mul(n) == Some(b.len()), "gemm_acc: b must be [k, n] = [{k}, {n}]");
    assert!(m.checked_mul(n) == Some(out.len()), "gemm_acc: out must be [m, n] = [{m}, {n}]");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let last_a = (m - 1)
        .checked_mul(rs)
        .zip((k - 1).checked_mul(cs))
        .and_then(|(row, col)| row.checked_add(col));
    assert!(last_a.is_some_and(|l| l < a.len()), "gemm_acc: a is too short for its strides");
    let g = Gemm { m, k, n, a: a.as_ptr(), rs, cs, b: b.as_ptr(), out: out.as_mut_ptr() };
    // SAFETY: the shapes were checked above, and `tier` is supported
    // (`best` probed it, `gemm_acc_on` asserted it).
    unsafe {
        match tier {
            GemmTier::Portable => {
                for i in 0..g.m {
                    stream_row(Gemm { a: g.a.add(i * g.rs), out: g.out.add(i * g.n), ..g }, g.n);
                }
            }
            #[cfg(target_arch = "x86_64")]
            GemmTier::Avx2 => sweep_avx2(g),
            #[cfg(target_arch = "x86_64")]
            GemmTier::Avx512 => sweep_avx512(g),
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("unsupported tiers never reach the sweep"),
        }
    }
}

/// [`gemm_acc`]'s shape-checked operands as the tier bodies take them (a
/// block's view has `a`, `b` and `out` moved to its first row and column).
#[derive(Clone, Copy)]
struct Gemm {
    m: usize,
    k: usize,
    n: usize,
    a: *const f32,
    rs: usize,
    cs: usize,
    b: *const f32,
    out: *mut f32,
}

/// The first output row of `g`, `cols` columns wide, by the plain loop:
/// for each `k` with `a[0][k] != 0.0`, add `a[0][k]·b[k][..]` to the whole
/// row. Returns `cols`.
///
/// # Safety
///
/// `g` must have passed [`run_gemm`]'s shape checks, with at least `cols`
/// columns left from its origin.
#[inline(always)]
unsafe fn stream_row(g: Gemm, cols: usize) -> usize {
    let out = std::slice::from_raw_parts_mut(g.out, cols);
    for kk in 0..g.k {
        let av = *g.a.add(kk * g.cs);
        if av == 0.0 {
            continue;
        }
        let brow = std::slice::from_raw_parts(g.b.add(kk * g.n), cols);
        for (o, &bv) in out.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
    cols
}

/// One register of `f32` lanes as the vector sweep sees it. Partial loads
/// and stores touch only the first `len` lanes.
///
/// # Safety
///
/// The methods may only run on a CPU that supports the register type, and
/// `p` must be valid for `len` lanes.
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    const W: usize;
    /// Whether the tier has 32 registers (room for a one-row block of
    /// eight) and masked loads and stores (a partial register costs no
    /// more than a full one).
    const WIDE: bool;
    /// The first `len ≤ W` lanes at `p` (the rest zero).
    unsafe fn load(p: *const f32, len: usize) -> Self;
    unsafe fn store(self, p: *mut f32, len: usize);
    /// One `k` term of a row: `acc + a·b` per lane (a rounded multiply,
    /// then a rounded add), leaving `acc` untouched when `a == 0.0`.
    unsafe fn add_term<const C: usize>(acc: &mut [Self; C], a: f32, b: &[Self; C]);
}

#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256 {
    const W: usize = 8;
    const WIDE: bool = false;
    #[inline(always)]
    unsafe fn load(p: *const f32, len: usize) -> Self {
        use std::arch::x86_64::*;
        if len == 8 {
            _mm256_loadu_ps(p)
        } else {
            _mm256_maskload_ps(p, lane_mask8(len))
        }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32, len: usize) {
        use std::arch::x86_64::*;
        if len == 8 {
            _mm256_storeu_ps(p, self)
        } else {
            _mm256_maskstore_ps(p, lane_mask8(len), self)
        }
    }
    #[inline(always)]
    unsafe fn add_term<const C: usize>(acc: &mut [Self; C], a: f32, b: &[Self; C]) {
        use std::arch::x86_64::*;
        // No branch: zero `a` terms of post-ReLU operands are
        // unpredictable. A skipped term adds `-0.0` instead, which leaves
        // every accumulator unchanged (a signaling NaN comes back quiet,
        // which Rust's float semantics allow). NEQ_UQ keeps NaN terms and
        // drops ±0.0.
        let va = _mm256_set1_ps(a);
        let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(va, _mm256_setzero_ps());
        let fill = _mm256_andnot_ps(keep, _mm256_set1_ps(-0.0));
        for (acc, &b) in acc.iter_mut().zip(b) {
            let term = _mm256_or_ps(_mm256_and_ps(_mm256_mul_ps(va, b), keep), fill);
            *acc = _mm256_add_ps(*acc, term);
        }
    }
}

/// All-ones in the first `len` of eight 32-bit lanes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn lane_mask8(len: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
}

#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m512 {
    const W: usize = 16;
    const WIDE: bool = true;
    #[inline(always)]
    unsafe fn load(p: *const f32, len: usize) -> Self {
        std::arch::x86_64::_mm512_maskz_loadu_ps(lane_mask16(len), p)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32, len: usize) {
        std::arch::x86_64::_mm512_mask_storeu_ps(p, lane_mask16(len), self)
    }
    #[inline(always)]
    unsafe fn add_term<const C: usize>(acc: &mut [Self; C], a: f32, b: &[Self; C]) {
        use std::arch::x86_64::*;
        // A masked add, not a branch (see the AVX2 body).
        let va = _mm512_set1_ps(a);
        let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(va, _mm512_setzero_ps());
        for (acc, &b) in acc.iter_mut().zip(b) {
            *acc = _mm512_mask_add_ps(*acc, keep, *acc, _mm512_mul_ps(va, b));
        }
    }
}

/// The first `len ≤ 16` lanes of a 16-lane mask.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn lane_mask16(len: usize) -> u16 {
    ((1u32 << len) - 1) as u16
}

/// The AVX2 body of [`gemm_acc`].
///
/// # Safety
///
/// The CPU must support AVX2, and `g` must have passed [`run_gemm`]'s
/// shape checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2(g: Gemm) {
    sweep::<std::arch::x86_64::__m256>(g);
}

/// The AVX-512 body of [`gemm_acc`].
///
/// # Safety
///
/// The CPU must support AVX-512F, and `g` must have passed [`run_gemm`]'s
/// shape checks.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sweep_avx512(g: Gemm) {
    sweep::<std::arch::x86_64::__m512>(g);
}

/// The sweep the vector tiers run: [`GEMM_MR`]-row blocks down `out` (the
/// last one shorter), each across column blocks of registers of
/// accumulators — `R` rows × `C` registers with `R·C = 8` for `R ≥ 2` — so
/// enough independent add chains are in flight to hide the add latency. A
/// lone row (a batch-1 GEMM, or the last row of `out`) takes up to eight
/// registers on a [`Lanes::WIDE`] tier; a tier with 16 registers runs it as
/// [`stream_row`] instead, since one-row blocks of four registers re-read
/// all of `b` per 32 columns and measured slower than the plain loop. A
/// `WIDE` tier takes a block whenever it is more than half used; the other
/// takes one only when it is full, so only the last block of a row is
/// partial.
///
/// # Safety
///
/// The CPU must support `V`, and `g` must have passed [`run_gemm`]'s shape
/// checks.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn sweep<V: Lanes>(g: Gemm) {
    for i in (0..g.m).step_by(GEMM_MR) {
        let mut j = 0;
        while j < g.n {
            let cols = g.n - j;
            let fits =
                |c: usize| if V::WIDE { cols.div_ceil(V::W) > c / 2 } else { cols >= c * V::W };
            let at = Gemm { a: g.a.add(i * g.rs), b: g.b.add(j), out: g.out.add(i * g.n + j), ..g };
            j += match g.m - i {
                1 if !V::WIDE => stream_row(at, cols),
                1 if fits(8) => block::<V, 1, 8>(at, cols),
                1 if fits(4) => block::<V, 1, 4>(at, cols),
                1 => block::<V, 1, 2>(at, cols),
                2 if fits(4) => block::<V, 2, 4>(at, cols),
                2 => block::<V, 2, 2>(at, cols),
                3 => block::<V, 3, 2>(at, cols),
                _ => block::<V, GEMM_MR, 2>(at, cols),
            };
        }
    }
}

/// One `R`-row output block of up to `C` registers per row at `g`'s
/// origin (`cols` columns remain in the row, so trailing registers may be
/// partial or empty). Returns `C·W`, the columns it covered.
///
/// # Safety
///
/// As [`sweep`], with `R` rows and `cols` columns left in `g` from its
/// origin.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn block<V: Lanes, const R: usize, const C: usize>(g: Gemm, cols: usize) -> usize {
    if cols >= C * V::W {
        // Constant full lengths: no partial-lane code in the `k` loop.
        block_sweep::<V, R, C>(g, [V::W; C]);
    } else {
        block_sweep::<V, R, C>(g, std::array::from_fn(|c| cols.saturating_sub(c * V::W).min(V::W)));
    }
    C * V::W
}

/// [`block`]'s body over registers of `lens` lanes: load the block, add
/// every `k` term in ascending order, store it.
///
/// # Safety
///
/// As [`block`], with `lens` covering at most the columns left.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn block_sweep<V: Lanes, const R: usize, const C: usize>(g: Gemm, lens: [usize; C]) {
    // `wrapping_add`: an empty register's offset may point past `b`/`out`;
    // its zero-length load and store touch no memory.
    let regs = |p: *const f32| -> [V; C] {
        std::array::from_fn(|c| V::load(p.wrapping_add(c * V::W), lens[c]))
    };
    let mut acc: [[V; C]; R] = std::array::from_fn(|r| regs(g.out.add(r * g.n)));
    for kk in 0..g.k {
        let bk = regs(g.b.add(kk * g.n));
        for (r, acc) in acc.iter_mut().enumerate() {
            V::add_term(acc, *g.a.add(r * g.rs + kk * g.cs), &bk);
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (c, v) in acc.iter().enumerate() {
            v.store(g.out.add(r * g.n).wrapping_add(c * V::W), lens[c]);
        }
    }
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
