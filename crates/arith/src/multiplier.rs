//! The multiplier abstraction every CNN layer plugs into: a scalar
//! `multiply` plus the batched slice-level API of the arithmetic backend
//! (see [`crate::batch`]).

use std::fmt;
use std::sync::Arc;

use crate::array::ArrayMultiplierSpec;
use crate::batch::{BatchKernel, FallbackKernel, PreparedOperands};
use crate::bfloat::BfloatMultiplier;
use crate::fpm::FloatMultiplier;
use crate::heap;
use crate::simd::{clean_axpy, nan_stable_add, native_axpy, pair_has_special, row_has_special};
use crate::RowClass;

/// An `f32 × f32` multiplier — exact hardware, an approximate FPM, or a
/// reduced-precision unit.
///
/// Implementors must be deterministic: the paper's defense relies on
/// *data-dependent*, not random, noise.
///
/// Beyond the scalar [`multiply`](Multiplier::multiply), the trait carries
/// the slice-level batched API. The defaults are scalar loops, so a new
/// multiplier only has to implement `multiply`; performance-critical
/// implementations override the slice methods (and
/// [`batch_kernel`](Multiplier::batch_kernel)) with vectorizable or
/// bit-sliced versions. **Every override must stay bit-identical to the
/// scalar loop** — the GEMM property tests enforce this per kind.
pub trait Multiplier: Send + Sync {
    /// Multiply two values through the simulated datapath.
    fn multiply(&self, a: f32, b: f32) -> f32;

    /// Short stable identifier (used in reports and cache keys).
    fn name(&self) -> &str;

    /// Elementwise products: `out[i] = multiply(a[i], b[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the three slice lengths differ.
    fn multiply_slice(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
        assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = self.multiply(x, y);
        }
    }

    /// Fused dot product: `Σ_i multiply(a[i], b[i])`, accumulated left to
    /// right in `f32` (additions stay exact, as in the paper's datapath;
    /// NaN payload propagation is pinned by
    /// [`crate::simd::nan_stable_add`]).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    fn dot_accumulate(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_accumulate length mismatch");
        let mut acc = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            acc = nan_stable_add(acc, self.multiply(x, y));
        }
        acc
    }

    /// Scaled accumulation: `acc[i] += multiply(a, b[i])` — the GEMM
    /// workhorse (one weight against a row of activations).
    ///
    /// # Panics
    ///
    /// Panics if `b` and `acc` lengths differ.
    fn axpy_slice(&self, a: f32, b: &[f32], acc: &mut [f32]) {
        assert_eq!(b.len(), acc.len(), "axpy_slice length mismatch");
        for (o, &y) in acc.iter_mut().zip(b) {
            *o = nan_stable_add(*o, self.multiply(a, y));
        }
    }

    /// Fused multi-term axpy: `acc[j] += Σ_t multiply(a[t], b[t*acc.len()+j])`,
    /// accumulated per element in ascending `t` — bit-identical to calling
    /// [`Multiplier::axpy_slice`] once per `a[t]` in order. `b` is the
    /// row-major `a.len() × acc.len()` block of right-hand operands.
    ///
    /// Gate-level designs override this to batch the `a[t]` terms through
    /// the bit-sliced plane sweep, filling all sub-blocks of a wide sweep
    /// even when `acc.len()` alone is too short to.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != a.len() * acc.len()`.
    fn axpy_fused(&self, a: &[f32], b: &[f32], acc: &mut [f32]) {
        assert_eq!(b.len(), a.len() * acc.len(), "axpy_fused length mismatch");
        let n = acc.len();
        for (t, &x) in a.iter().enumerate() {
            self.axpy_slice(x, &b[t * n..(t + 1) * n], acc);
        }
    }

    /// A stateful per-worker kernel for batched inner loops.
    ///
    /// The default delegates to the slice methods above. FPM multipliers
    /// return kernels that run gate-level cores on the bit-sliced plane
    /// sweep (see [`crate::bitslice`]); callers create one kernel per worker
    /// thread and reuse it across an entire GEMM.
    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_> {
        Box::new(FallbackKernel::new(self))
    }
}

impl fmt::Debug for dyn Multiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Multiplier({})", self.name())
    }
}

/// The exact multiplier: native IEEE-754 `f32` multiplication.
///
/// # Examples
///
/// ```
/// use da_arith::{ExactMultiplier, Multiplier};
/// assert_eq!(ExactMultiplier.multiply(3.0, 4.0), 12.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMultiplier;

impl Multiplier for ExactMultiplier {
    #[inline]
    fn multiply(&self, a: f32, b: f32) -> f32 {
        a * b
    }

    fn name(&self) -> &str {
        "exact"
    }

    // Native loops: with the defaults these would still be correct, but the
    // explicit bodies contain no calls at all, so the compiler vectorizes
    // them like hand-written f32 kernels. Rows are classified first: a
    // NaN-free product stream keeps the plain fused loop (bitwise
    // order-independent), while rows carrying Inf/NaN pin payload
    // propagation through `nan_stable_add` (see `crate::simd`).

    fn multiply_slice(&self, a: &[f32], b: &[f32], out: &mut [f32]) {
        assert_eq!(a.len(), b.len(), "multiply_slice length mismatch");
        assert_eq!(a.len(), out.len(), "multiply_slice output length mismatch");
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    fn dot_accumulate(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot_accumulate length mismatch");
        let mut acc = 0.0f32;
        if pair_has_special(a, b) {
            for (&x, &y) in a.iter().zip(b) {
                acc = nan_stable_add(acc, x * y);
            }
        } else {
            for (&x, &y) in a.iter().zip(b) {
                acc += x * y;
            }
        }
        acc
    }

    fn axpy_slice(&self, a: f32, b: &[f32], acc: &mut [f32]) {
        native_axpy(a, b, acc, clean_axpy(a, native_class(b)));
    }

    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_> {
        Box::new(NativeBatchKernel { row_class: Vec::new() })
    }
}

/// The special-only row scan for native/value-type kernels: zeros need no
/// special handling in the fused loops, so zero-bearing rows report
/// `Normal` (half the scan cost of the three-way classification).
fn native_class(b: &[f32]) -> RowClass {
    if row_has_special(b) {
        RowClass::Special
    } else {
        RowClass::Normal
    }
}

/// The batched kernel behind [`ExactMultiplier::batch_kernel`]: the native
/// fused loops of the slice methods, with row classification amortized
/// across multi-row sweeps ([`BatchKernel::axpy_rows`]) and whole tiles
/// ([`BatchKernel::gemm_tile`]) instead of re-scanned per `axpy` call.
struct NativeBatchKernel {
    row_class: Vec<RowClass>,
}

impl BatchKernel for NativeBatchKernel {
    fn axpy(&mut self, a: f32, b: &[f32], acc: &mut [f32]) {
        ExactMultiplier.axpy_slice(a, b, acc);
    }

    fn axpy_classified(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]) {
        debug_assert!(class == RowClass::Special || !row_has_special(b), "stale row class");
        native_axpy(a, b, acc, clean_axpy(a, class));
    }

    fn axpy_rows(&mut self, a: &[f32], b: &[f32], acc: &mut [f32], acc_stride: usize) {
        assert!(a.len() <= 1 || acc_stride >= b.len(), "axpy_rows rows overlap");
        let class = native_class(b);
        for (r, &av) in a.iter().enumerate() {
            let acc_row = &mut acc[r * acc_stride..r * acc_stride + b.len()];
            native_axpy(av, b, acc_row, clean_axpy(av, class));
        }
    }

    fn gemm_tile(
        &mut self,
        ops: &PreparedOperands,
        b: &[f32],
        tile: usize,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        let mut row_class = std::mem::take(&mut self.row_class);
        crate::batch::gemm_tile_classified(
            ops,
            b,
            tile,
            acc,
            acc_stride,
            &mut row_class,
            native_class,
            |a, brow, class, acc_row| native_axpy(a, brow, acc_row, clean_axpy(a, class)),
        );
        self.row_class = row_class;
    }

    fn gemm_tile_classed(
        &mut self,
        ops: &PreparedOperands,
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        // One covering class for every row: a direct sweep, no per-row
        // classification state at all.
        assert_eq!(b.len(), ops.cols() * tile, "gemm_tile b length mismatch");
        assert!(ops.rows() <= 1 || acc_stride >= tile, "gemm_tile rows overlap");
        for r in 0..ops.rows() {
            let acc_row = &mut acc[r * acc_stride..r * acc_stride + tile];
            for (k, op) in ops.row(r).iter().enumerate() {
                let a = op.value();
                let brow = &b[k * tile..(k + 1) * tile];
                native_axpy(a, brow, acc_row, clean_axpy(a, class));
            }
        }
    }

    fn classify_rhs(&self, b: &[f32]) -> RowClass {
        native_class(b)
    }

    fn dot(&mut self, a: &[f32], b: &[f32]) -> f32 {
        ExactMultiplier.dot_accumulate(a, b)
    }

    fn mul(&mut self, a: &[f32], b: &[f32], out: &mut [f32]) {
        ExactMultiplier.multiply_slice(a, b, out);
    }
}

/// The multiplier designs evaluated in the paper, as a value type usable in
/// configs, caches, and report rows.
///
/// # Examples
///
/// ```
/// use da_arith::MultiplierKind;
///
/// let m = MultiplierKind::AxFpm.build();
/// assert_eq!(m.name(), "ax-fpm");
/// assert!(m.multiply(0.5, 0.5) >= 0.25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MultiplierKind {
    /// Native `f32` multiplication (the paper's "Float32" baseline).
    Exact,
    /// Gate-level exact FPM with truncating rounding (sanity reference).
    ExactFpm,
    /// The paper's defense: AMA5 array mantissa core (§4.1).
    AxFpm,
    /// The HEAP heterogeneous approximate multiplier (Appendix A).
    Heap,
    /// Bfloat16 truncating multiplier (§7.2).
    Bfloat16,
}

impl MultiplierKind {
    /// All kinds, in the order the paper's tables list them.
    pub const ALL: [MultiplierKind; 5] = [
        MultiplierKind::Exact,
        MultiplierKind::ExactFpm,
        MultiplierKind::AxFpm,
        MultiplierKind::Heap,
        MultiplierKind::Bfloat16,
    ];

    /// Instantiate the multiplier.
    pub fn build(self) -> Arc<dyn Multiplier> {
        match self {
            MultiplierKind::Exact => Arc::new(ExactMultiplier),
            MultiplierKind::ExactFpm => Arc::new(FloatMultiplier::exact()),
            MultiplierKind::AxFpm => Arc::new(FloatMultiplier::ax_fpm()),
            MultiplierKind::Heap => Arc::new(heap::heap_multiplier()),
            MultiplierKind::Bfloat16 => Arc::new(BfloatMultiplier),
        }
    }

    /// Stable identifier matching [`Multiplier::name`].
    pub fn as_str(self) -> &'static str {
        match self {
            MultiplierKind::Exact => "exact",
            MultiplierKind::ExactFpm => "exact-fpm",
            MultiplierKind::AxFpm => "ax-fpm",
            MultiplierKind::Heap => "heap",
            MultiplierKind::Bfloat16 => "bfloat16",
        }
    }

    /// The mantissa-core spec for gate-level kinds, `None` for behavioural
    /// ones (used by the energy model).
    pub fn core_spec(self) -> Option<ArrayMultiplierSpec> {
        match self {
            MultiplierKind::ExactFpm => Some(ArrayMultiplierSpec::exact(24)),
            MultiplierKind::AxFpm => Some(ArrayMultiplierSpec::ax_mantissa(24)),
            MultiplierKind::Heap => Some(heap::heap_mantissa_spec()),
            MultiplierKind::Exact | MultiplierKind::Bfloat16 => None,
        }
    }
}

impl fmt::Display for MultiplierKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiplier_is_native() {
        let m = ExactMultiplier;
        assert_eq!(m.multiply(1.5, -2.0), -3.0);
        assert_eq!(m.name(), "exact");
    }

    #[test]
    fn kinds_build_and_names_agree() {
        for kind in MultiplierKind::ALL {
            let m = kind.build();
            assert_eq!(m.name(), kind.as_str());
            let r = m.multiply(0.5, 0.5);
            assert!(r.is_finite() && r > 0.0, "{kind} produced {r}");
        }
    }

    #[test]
    fn debug_formatting_is_nonempty() {
        let m: Arc<dyn Multiplier> = MultiplierKind::AxFpm.build();
        assert_eq!(format!("{:?}", &*m), "Multiplier(ax-fpm)");
    }
}
