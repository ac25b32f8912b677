//! The multiplier abstraction every CNN layer plugs into: a scalar
//! `multiply` plus the batched slice-level API of the arithmetic backend
//! (see [`crate::batch`]).

use std::fmt;
use std::sync::Arc;

use crate::array::ArrayMultiplierSpec;
use crate::batch::{gemm_tile_rows, BatchKernel};
use crate::bfloat::BfloatMultiplier;
use crate::fpm::FloatMultiplier;
use crate::heap;
use crate::simd::{classify_row, clean_axpy, nan_stable_add, native_axpy, pair_has_special};
use crate::RowClass;

/// An `f32 × f32` multiplier — exact hardware, an approximate FPM, or a
/// reduced-precision unit.
///
/// Implementors must be deterministic: the paper's defense relies on
/// *data-dependent*, not random, noise.
///
/// Beyond the scalar [`multiply`](Multiplier::multiply), a design supplies
/// its GEMM kernel ([`batch_kernel`](Multiplier::batch_kernel), two methods)
/// and may override the two slice ops, whose defaults are scalar loops.
/// **Every batched path must stay bit-identical to the scalar loop** — the
/// GEMM property tests enforce this per kind.
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

    /// A per-worker [`BatchKernel`] for GEMM inner loops: callers create one
    /// kernel per worker thread and reuse it across an entire GEMM. FPM
    /// multipliers run gate-level cores on the bit-sliced plane sweep (see
    /// [`crate::bitslice`]); closed-form cores run the lane kernels of
    /// [`crate::simd`].
    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_>;
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
    // them like hand-written f32 kernels. The dot product scans for Inf/NaN
    // first: a NaN-free product stream keeps the plain fused loop (bitwise
    // order-independent), while operands carrying Inf/NaN pin payload
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

    fn batch_kernel(&self) -> Box<dyn BatchKernel + Send + '_> {
        Box::new(NativeBatchKernel)
    }
}

/// The batched kernel behind [`ExactMultiplier::batch_kernel`]: the native
/// fused loops, with the caller's row class choosing between the plain
/// accumulate and the NaN-pinned one (zeros need no special handling).
struct NativeBatchKernel;

impl BatchKernel for NativeBatchKernel {
    fn axpy(&mut self, a: f32, b: &[f32], class: RowClass, acc: &mut [f32]) {
        debug_assert!(class.covers(classify_row(b)), "stale row class");
        native_axpy(a, b, acc, clean_axpy(a, class));
    }

    fn gemm_tile(
        &mut self,
        w: &[f32],
        b: &[f32],
        tile: usize,
        class: RowClass,
        acc: &mut [f32],
        acc_stride: usize,
    ) {
        gemm_tile_rows(w, b, tile, class, acc, acc_stride, |wrow, acc_row| {
            for (&a, brow) in wrow.iter().zip(b.chunks_exact(tile)) {
                native_axpy(a, brow, acc_row, clean_axpy(a, class));
            }
        });
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
