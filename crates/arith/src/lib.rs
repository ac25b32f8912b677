//! Gate-level approximate arithmetic for **Defensive Approximation** (ASPLOS '21).
//!
//! This crate implements every hardware artifact the paper builds or compares
//! against, simulated faithfully at the gate level but bit-sliced over machine
//! words for speed:
//!
//! * [`adders`] — the mirror-adder family: the exact full adder and the
//!   AMA1–AMA5 approximate mirror adders (AMA5, `Sum = B` / `Cout = A`, is the
//!   design the paper's Ax-FPM uses).
//! * [`mod@array`] — carry-save array multipliers with configurable cell kinds,
//!   port wiring, and final carry-propagate adder.
//! * [`fpm`] — IEEE-754 binary32 floating-point multipliers assembled from a
//!   mantissa array core: the exact reference and the paper's **Ax-FPM**.
//! * [`heap`] — the heterogeneous **HEAP** multiplier and the design-space
//!   exploration that selects it (paper §4.3 and Appendix A).
//! * [`bfloat`] — the truncating Bfloat16 multiplier (paper §7.2).
//! * [`metrics`] — MRED / NMED / inflation-rate error metrics (Appendix A).
//! * [`profile`] — noise-profile sampling behind Figures 3, 13 and 15.
//! * [`energy`] — a transistor-census energy and critical-path delay model
//!   calibrated to the paper's PTM-45nm measurements (Tables 7 and 9).
//!
//! # Arithmetic backend
//!
//! Scalar [`Multiplier::multiply`] is the semantic ground truth, but hot
//! paths (CNN GEMMs, profile sweeps) run on the **batched backend**. A
//! multiplier design supplies it through a small interface:
//!
//! * [`Multiplier::batch_kernel`] hands out a per-worker [`BatchKernel`]
//!   with two methods, the two loop shapes every GEMM reduces to:
//!   [`BatchKernel::axpy`] (one shared operand against a row) and
//!   [`BatchKernel::gemm_tile`] (a row-major `f32` weight block against a
//!   patch tile). Both take the right-hand rows' [`RowClass`] from the
//!   caller, who classifies once with [`classify_row`] and reuses the class
//!   across many sweeps; any class that [covers](RowClass::covers) the
//!   rows is valid, for every kernel.
//! * [`Multiplier::multiply_slice`] and [`Multiplier::dot_accumulate`]
//!   (scalar-loop defaults, vectorized overrides) feed the noise profiles,
//!   metrics and Figure 4.
//! * Cores with a proven closed form (canonical AMA5, the exact array, and
//!   the Bfloat16 truncation) run on the **lane-parallel kernels** of
//!   [`simd`]: the row class picks a `LANES`-wide branchless block
//!   pipeline, autovectorized on every target. Inf/NaN rows stay on the
//!   shared scalar slow path, so special-value semantics cannot diverge.
//! * **Gate-level cores without a closed form** (HEAP, port-map ablation
//!   wirings) run the netlist itself on the [`bitslice`] plane sweep: 64
//!   products per block, and 8×64 per wide block wherever a tile GEMM has a
//!   run of eight normal weights. There is no table to build.
//! * When operands are **codes**, the [`quantized`] module collapses any
//!   multiplier's hot path — gate-level cores included — into one
//!   precomputed [`ProductLut`]: every entry is the scalar multiplier's own
//!   product over the decoded code pair, and [`quantized::lut_gemm`]
//!   accumulates them with exact `f32` adds. A table has 256 rows and 256
//!   columns (int8 codes on both sides: AVX-512/AVX2 hardware gathers) or
//!   16 columns (**4-bit weight codes**: one cache line per row code, so
//!   the lookup is an **in-register shuffle**, `vpermps` over a
//!   zmm-/ymm-resident table row, the fastest inner loop in the crate).
//!   This is what quantized serving plans in `da_nn::engine` run on.
//!
//! # Backend decision tree
//!
//! How a GEMM picks its backend, from most to least specialized:
//!
//! 1. **Int4 weight codes available** (plan compiled at
//!    `Int4Weights` precision and the layer passed its calibration gap
//!    check) → [`quantized::lut_gemm`] over a 256×16 [`ProductLut`]: an
//!    in-register shuffle, since a row code's 16 products fit one register;
//!    AVX-512 `vpermutexvar_ps`, AVX2 `vpermps`+blend, scalar fallback.
//! 2. **Int8 codes available** (quantized serving plan) →
//!    [`quantized::lut_gemm`] over a 256×256 [`ProductLut`]: AVX-512/AVX2
//!    hardware gathers, scalar fallback.
//! 3. **f32 operands, closed-form core** (exact array, canonical AMA5
//!    Ax-FPM, Bfloat16 truncation, native `f32`) → the [`BatchKernel`]'s
//!    [`simd`] lane kernels over the caller-classified rows.
//! 4. **f32 operands, gate-level core** (HEAP, ablation wirings) → the
//!    [`BatchKernel`]'s [`bitslice`] plane sweep: 64 products per block,
//!    8×64 per wide block inside [`BatchKernel::gemm_tile`].
//! 5. **Anything else** (special values, ragged tails) → the scalar loop,
//!    which is always the semantic ground truth.
//!
//! Every batched path is **bit-identical** to the scalar loop it replaces
//! (enforced by property tests here and in `da_nn`); approximation stays a
//! property of the simulated hardware, never of the simulation strategy.
//!
//! # Quick example
//!
//! ```
//! use da_arith::{Multiplier, fpm::FloatMultiplier};
//!
//! let ax = FloatMultiplier::ax_fpm();
//! let exact = 0.5_f32 * 0.75_f32;
//! let approx = ax.multiply(0.5, 0.75);
//! // The paper's headline property: Ax-FPM inflates products (Figure 3).
//! assert!(approx >= exact);
//! assert!(approx <= 2.0 * exact + f32::EPSILON);
//! ```

pub mod adders;
pub mod array;
pub mod batch;
pub mod bfloat;
pub mod bitslice;
pub mod energy;
pub mod fpm;
pub mod heap;
pub mod metrics;
pub mod profile;
pub mod quantized;
pub mod simd;
pub mod storage;

mod multiplier;

pub use adders::AdderKind;
pub use array::{ArrayMultiplier, ArrayMultiplierSpec, CellAssignment, CpaKind, PortMap};
pub use batch::BatchKernel;
pub use bitslice::{
    transpose64, BitslicedArray, BITSLICE_LANES, BITSLICE_WIDE, BITSLICE_WIDE_LANES,
};
pub use multiplier::{ExactMultiplier, Multiplier, MultiplierKind};
pub use quantized::{LutOrder, ProductLut, QuantParams};
pub use simd::{classify_row, RowClass, LANES};
pub use storage::{ByteRegion, Storage, StorageError};
