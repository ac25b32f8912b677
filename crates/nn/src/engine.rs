//! Compiled inference plans: the serving engine behind `Network::logits`.
//!
//! Defensive Approximation deploys a *fixed* trained network on an
//! approximate multiplier (paper §4), which makes serving-time inference the
//! hot path. The per-layer [`crate::Network::forward`] is built for
//! training: every call re-derives effective weights, reshapes them,
//! materializes an im2col matrix per item, and allocates a cache it
//! immediately discards. An [`InferencePlan`] walks the layer stack **once**
//! and compiles it against the arithmetic unit:
//!
//! * every convolution weight's sign/exponent/significand is pre-decomposed
//!   into a [`da_arith::PreparedOperands`] matrix consumed directly by the
//!   kernel entry points [`da_arith::BatchKernel::axpy_prepared`] and
//!   [`da_arith::BatchKernel::gemm_tile`] (no per-call operand
//!   decomposition; dense layers keep raw pre-transposed weights, because
//!   their reference GEMM makes the *activation* — not the weight — the
//!   kernel's shared operand, and bit-identity pins that operand order);
//! * convolution weights are pre-reshaped to `[Cout, Cin·Kh·Kw]` and dense
//!   weights pre-transposed to `[In, Out]` (no per-call clone + reshape);
//! * convolutions run as **fused conv+bias+ReLU output tiles** that gather
//!   input patches on the fly into a small reused buffer instead of
//!   materializing full im2col columns;
//! * activations ping-pong through a reusable workspace arena, so a
//!   steady-state [`InferencePlan::predict_batch`] performs no heap
//!   allocation for intermediates (only the returned logits tensor is
//!   allocated).
//!
//! Plans are **bit-identical** to `Network::forward(Mode::Eval)` for every
//! multiplier kind (property-tested in `tests/engine_equivalence.rs`),
//! including NaN/Inf/denormal inputs: per output element the reduction
//! order, operand order, and special-value branches all match the per-layer
//! reference, which stays in the tree as the semantic ground truth.
//!
//! A plan snapshots the network at compile time (weights, quantization,
//! batch-norm running statistics). [`crate::Network`] caches a plan
//! internally and invalidates it whenever weights, the multiplier, or
//! training-mode statistics change, so `Network::logits`, `predict`,
//! `probabilities`, `accuracy`, and the attack harness's `predict_batch`
//! all ride the compiled path transparently.
//!
//! # Choosing plan precision
//!
//! Plans compile in one of three numeric modes ([`PlanPrecision`]):
//!
//! * **F32** ([`InferencePlan::compile`], the default everywhere): serves
//!   over the batched f32 kernels, **bit-identical** to
//!   `forward(Mode::Eval)`. Choose it whenever exact parity with the
//!   training-time datapath matters (experiments, attacks, conformance).
//! * **Int8** ([`InferencePlan::compile_quantized`]): quantizes weights per
//!   tensor and activations per layer boundary (calibrated on a sample
//!   batch you supply), then runs every conv/dense GEMM as a
//!   [`da_arith::quantized::ProductLut`] gather — the table holds the
//!   *actual* multiplier's product for every code pair, so the plan stays
//!   faithful to the approximate hardware while skipping all per-element
//!   decompose/classify/clamp work. Logits differ from the f32 plan by
//!   quantization error only (accuracy bounded in-test on LeNet); the plan
//!   itself is deterministic and schedule-independent, so
//!   [`crate::serve::BatchServer`] serves it under the same batching
//!   contract. Choose it for throughput: ~2.3–2.7× the planned-f32 Ax-FPM
//!   serving rate on the reference container (batch 1 vs batched serving;
//!   capped by gather-instruction throughput), and three orders of
//!   magnitude for gate-level HEAP, whose LUT gathers run exactly as fast
//!   as everyone else's.
//! * **Int4Weights** ([`InferencePlan::compile_quantized_int4`]): like
//!   Int8, but weights narrow to 16 codes per tensor so each layer's
//!   product table collapses to 256×16 entries and the GEMM runs as an
//!   in-register shuffle ([`da_arith::quantized::lut4_gemm`]) instead of a
//!   hardware gather — several times the int8 gather rate. Compilation
//!   measures each conv/dense layer's int4-vs-int8 output gap on the
//!   calibration batch and **falls back to int8 per layer** when the gap
//!   exceeds the conformance threshold, so a plan is a mixed-precision
//!   snapshot ([`InferencePlan::int4_layer_mix`] reports the split).
//!   Choose it when weight tensors tolerate 4-bit codes (the compiler
//!   decides per layer, so it is never worse than Int8 in accuracy by more
//!   than the threshold).
//!
//! # Quickstart
//!
//! ```
//! use da_arith::MultiplierKind;
//! use da_nn::engine::InferencePlan;
//! use da_nn::zoo::lenet5;
//! use da_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = lenet5(10, &mut rng);
//! // Deploy on the paper's Ax-FPM and compile once against it...
//! net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
//! let plan = InferencePlan::compile(&net, net.multiplier().cloned())
//!     .expect("all built-in layers have compiled forms");
//! // ...then serve: repeated calls reuse the same workspace arena.
//! let x = Tensor::zeros(&[2, 1, 28, 28]);
//! assert_eq!(plan.predict_batch(&x).shape(), &[2, 10]);
//! assert_eq!(plan.predict(&x).len(), 2);
//! // (`net.plan()` compiles and caches the same thing behind `logits`.)
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use da_arith::quantized::{
    lut4_gemm, lut_gemm, requantize_bias_act, Lut4Order, ProductLut, ProductLut4, QuantParams,
    QuantParams4,
};
use da_arith::storage::Storage;
use da_arith::{BatchKernel, ExactMultiplier, Multiplier, PreparedOperands, RowClass};
use da_tensor::ops::ConvGeometry;
use da_tensor::parallel::par_map_chunks_with;
use da_tensor::Tensor;

use crate::layers::transpose2d;
use crate::quant::quantize_k;
use crate::Network;

/// Output pixels per fused convolution tile: the gather buffer holds
/// `Cin·Kh·Kw × CONV_TILE` patch values, matching the batched GEMM's column
/// tile so axpy slices stay L1-resident. A whole multiple of the arithmetic
/// backend's SIMD block width, so every full tile feeds the lane kernels
/// complete vectors (only a conv's final ragged tile runs scalar tails).
const CONV_TILE: usize = 32 * da_arith::simd::LANES;

/// Column cap per fused convolution tile on the quantized path. A whole
/// multiple of the widest gather lane count (16). Wider tiles amortize the
/// product table's cache-line fills across more gathers per row visit —
/// small output planes pack several items into one tile to reach the cap,
/// and large planes split into balanced multiples-of-16 tiles under it.
const QCONV_TILE: usize = 512;

/// Balanced per-item tile width for a `p_total`-pixel output plane: split
/// into equal tiles under [`QCONV_TILE`], rounded up to a multiple of 16 so
/// full tiles feed whole gather lanes (the final tile absorbs the ragged
/// remainder).
fn qconv_tile_width(p_total: usize) -> usize {
    if p_total <= QCONV_TILE {
        return p_total;
    }
    let tiles = p_total.div_ceil(QCONV_TILE);
    p_total.div_ceil(tiles).div_ceil(16) * 16
}

/// Below this many MACs per batch, `predict_batch` runs items sequentially
/// (thread spawn costs more than the arithmetic saves — same threshold
/// family as the batched GEMM).
const PAR_MIN_MACS: usize = 1 << 15;

/// A layer's compiled serving-time form, produced by
/// [`crate::Layer::compile_eval`] and consumed by [`InferencePlan::compile`].
///
/// Weight-bearing variants carry the *effective* (possibly quantized)
/// parameters, snapshotted at compile time.
pub enum CompiledLayer {
    /// 2-D convolution with effective weights `[Cout, Cin, Kh, Kw]`.
    Conv2d {
        /// Effective (quantized if enabled) weights.
        weight: Tensor,
        /// Bias, `[Cout]`.
        bias: Tensor,
        /// Stride (both dimensions).
        stride: usize,
        /// Zero padding (all sides).
        pad: usize,
        /// The multiplier installed in the layer itself — the plan compiler
        /// refuses to compile when it disagrees with the plan's multiplier
        /// (otherwise the plan would silently diverge from `forward`).
        multiplier: Option<Arc<dyn Multiplier>>,
    },
    /// Fully connected layer with effective weights `[Out, In]`.
    Dense {
        /// Effective (quantized if enabled) weights.
        weight: Tensor,
        /// Bias, `[Out]`.
        bias: Tensor,
        /// The multiplier installed in the layer itself (see
        /// [`CompiledLayer::Conv2d::multiplier`]).
        multiplier: Option<Arc<dyn Multiplier>>,
    },
    /// Max pooling.
    MaxPool2d {
        /// Window size.
        kernel: usize,
        /// Window stride.
        stride: usize,
    },
    /// Rectified linear unit (fused into a preceding conv/dense when
    /// possible).
    Relu,
    /// Shape-only collapse to `[N, features]` (free at run time).
    Flatten,
    /// Evaluation-mode no-op (dropout); dropped from the plan.
    Identity,
    /// Batch normalization with running statistics snapshotted.
    BatchNorm {
        /// Running per-channel means.
        mean: Vec<f32>,
        /// Running per-channel variances.
        var: Vec<f32>,
        /// Scale parameters.
        gamma: Vec<f32>,
        /// Shift parameters.
        beta: Vec<f32>,
        /// Variance epsilon.
        eps: f32,
    },
    /// DoReFa activation quantizer.
    QuantAct {
        /// Quantization bit width.
        bits: u32,
    },
}

/// Conv weights in the form the execution mode consumes: raw `f32`s for the
/// native exact path, pre-decomposed operands for the kernel path. Either-or
/// so a plan never stores the weight matrix twice.
pub(crate) enum ConvWeights {
    /// Pre-reshaped `[Cout, Cin·Kh·Kw]`, row-major (plans without a
    /// multiplier).
    Raw(Storage<f32>),
    /// Pre-decomposed `[Cout, Cin·Kh·Kw]` (plans with a multiplier).
    Prepared(PreparedOperands),
}

/// One executable step of a compiled plan.
///
/// `pub(crate)` (with its storage enums) so `crate::snapshot` can walk a
/// compiled plan when saving and reassemble steps over mapped storage when
/// loading; outside the crate the plan stays opaque.
pub(crate) enum Step {
    Conv {
        weights: ConvWeights,
        bias: Vec<f32>,
        cout: usize,
        cin: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        fuse_relu: bool,
    },
    Dense {
        /// Pre-transposed weights `[In, Out]`, row-major (owned, or
        /// borrowed from a snapshot mapping).
        wt: Storage<f32>,
        /// Per-`wt`-row [`RowClass`], classified once at compile time so the
        /// kernel's class-matched lane sweeps skip the per-call row scan
        /// (dense weights are the kernel's right-hand rows — the activation
        /// is the shared operand, pinned by the reference operand order).
        wt_class: Vec<RowClass>,
        bias: Vec<f32>,
        in_features: usize,
        out_features: usize,
        fuse_relu: bool,
    },
    MaxPool {
        window: usize,
        stride: usize,
    },
    Relu,
    Flatten,
    BatchNorm {
        mean: Vec<f32>,
        /// Pre-computed `(var + eps).sqrt()` per channel (bit-identical to
        /// the reference, which recomputes the same expression per element).
        denom: Vec<f32>,
        gamma: Vec<f32>,
        beta: Vec<f32>,
    },
    QuantAct {
        bits: u32,
    },
    // ----- int8 steps (present only in `PlanPrecision::Int8` plans) -----
    /// Quantize the `f32` input item into activation codes (always the
    /// first step of a quantized plan).
    QuantizeInput {
        params: QuantParams,
    },
    /// Fused quantized conv: LUT-gather GEMM over weight/patch codes with
    /// `f32` accumulation, then bias (+ ReLU) and the output stage.
    QConv {
        /// Weight codes, `[Cout, Cin·Kh·Kw]` row-major (the LUT's `a` side).
        qweight: Storage<u8>,
        /// Product table over (weight, activation) codes (shared across
        /// steps with identical quantizer pairs).
        lut: Arc<ProductLut>,
        bias: Vec<f32>,
        cout: usize,
        cin: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        fuse_relu: bool,
        out: QOut,
    },
    /// Fused quantized dense layer: the `rows == 1` LUT GEMM with the
    /// activation codes as the shared (`a`) operand — mirroring the f32
    /// reference, whose dense GEMM also makes the activation the left
    /// operand (approximate multipliers need not be commutative).
    QDense {
        /// Pre-transposed weight codes, `[In, Out]` row-major (the `b` side).
        qwt: Storage<u8>,
        /// Product table over (activation, weight) codes (shared across
        /// steps with identical quantizer pairs).
        lut: Arc<ProductLut>,
        bias: Vec<f32>,
        in_features: usize,
        out_features: usize,
        fuse_relu: bool,
        out: QOut,
    },
    /// Fused **int4-weight** quantized conv, run *transposed*: patch pixels
    /// are the GEMM rows and out-channels the vectorized columns, so the
    /// 4-bit weight codes vary along the in-register shuffle axis (see
    /// [`da_arith::quantized::lut4_gemm`]).
    QConv4 {
        /// Transposed weight codes, `[Cin·Kh·Kw, Cout]` row-major, low
        /// nibble.
        qweight_t: Storage<u8>,
        /// 256×16 product table over (weight, activation) codes.
        lut: Arc<ProductLut4>,
        bias: Vec<f32>,
        cout: usize,
        cin: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        fuse_relu: bool,
        out: QOut,
    },
    /// Fused int4-weight dense layer: a multi-row shuffle GEMM with the
    /// activation codes as rows (the multiplier's left operand, mirroring
    /// the f32 reference) and weight codes along the shuffle axis.
    QDense4 {
        /// Pre-transposed weight codes `[In, Out]` row-major, low nibble.
        qwt: Storage<u8>,
        /// 256×16 product table over (activation, weight) codes.
        lut: Arc<ProductLut4>,
        bias: Vec<f32>,
        in_features: usize,
        out_features: usize,
        fuse_relu: bool,
        out: QOut,
    },
    /// Max pooling directly on codes (dequantization is strictly
    /// increasing, so the max code is the code of the max value).
    QMaxPool {
        window: usize,
        stride: usize,
    },
    /// Standalone ReLU on codes: `max(code, zero_point)` (the zero point
    /// dequantizes to exactly 0.0).
    QRelu {
        zero_point: u8,
    },
    /// Decode codes back to `f32` (appended when a quantized plan does not
    /// end in a conv/dense step, which produce `f32` logits directly).
    QDequantize {
        params: QuantParams,
    },
}

/// Where a quantized conv/dense step sends its epilogue output.
#[derive(Clone, Copy)]
pub(crate) enum QOut {
    /// Requantize into activation codes for the next quantized step.
    Codes(QuantParams),
    /// Leave `f32` (the plan's final logits).
    Float,
}

/// Numeric mode a plan was compiled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanPrecision {
    /// Full-precision serving over the batched f32 kernels
    /// ([`InferencePlan::compile`]).
    F32,
    /// Int8 serving over LUT-gather kernels
    /// ([`InferencePlan::compile_quantized`]).
    Int8,
    /// Int8 activations with **int4 weight codes** where calibration allows:
    /// conv/dense layers run the in-register shuffle GEMM
    /// ([`da_arith::quantized::lut4_gemm`]) over a 256×16 table, falling
    /// back per layer to the int8 gather when the measured accuracy gap is
    /// too large ([`InferencePlan::compile_quantized_int4`]).
    Int4Weights,
}

/// Coarse numeric family of a plan — what a serving endpoint's callers can
/// observe. Int8 and int4-weight plans serve the same quantized contract,
/// so they share a family; hot-reloading between them is allowed while a
/// float↔quantized swap is not (logit bit patterns would change class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecisionFamily {
    /// Full-precision f32 serving.
    Float,
    /// Quantized serving (int8 activations, int8 or int4 weight codes).
    Quantized,
}

/// The input contract of a plan's first weight-bearing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanInput {
    /// Expects `[C, H, W]` items with this channel count (H, W free).
    Conv { cin: usize },
    /// Expects items that flatten to exactly this many features.
    Dense { features: usize },
}

/// A plan's externally observable serving contract: what shapes it accepts,
/// how wide its logits are, and which numeric family it answers in. Two
/// plans with equal interfaces are interchangeable behind a serving
/// endpoint — the shape handshake hot reload enforces ([`crate::serve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInterface {
    /// First weight-bearing step's input constraint (`None` for a plan with
    /// no weight-bearing steps — nothing to constrain).
    pub input: Option<PlanInput>,
    /// Output width of the final dense step, if the plan ends in one.
    pub output_features: Option<usize>,
    /// Numeric family the plan serves in.
    pub family: PrecisionFamily,
}

impl std::fmt::Display for PlanInterface {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.input {
            Some(PlanInput::Conv { cin }) => write!(f, "conv(cin={cin})")?,
            Some(PlanInput::Dense { features }) => write!(f, "dense(in={features})")?,
            None => write!(f, "any-input")?,
        }
        match self.output_features {
            Some(n) => write!(f, " -> {n} logits")?,
            None => write!(f, " -> passthrough")?,
        }
        write!(f, ", {:?}", self.family)
    }
}

/// Per-layer int4 acceptance threshold: a conv/dense layer keeps int4
/// weight codes only when the calibration-measured gap — the max absolute
/// difference between its int4 and int8 post-bias pre-activation outputs,
/// normalized by the int8 output spread — stays at or below this fraction.
/// Layers whose weight distribution collapses onto too few of the 16 codes
/// blow past it and fall back to the int8 gather.
pub const INT4_FALLBACK_GAP: f32 = 0.25;

/// Compile-time product-table cache: one [`ProductLut`] (64 KiB × 4 B) per
/// *distinct* ordered quantizer pair instead of one per layer — layers whose
/// operand ranges coincide (common after ReLU chains with shared weight
/// scales) share a single `Arc` allocation. Keys are ordered `(a, b)` pairs,
/// so conv tables (weights left) never falsely alias dense tables
/// (activations left) even when the parameter values match.
#[derive(Default)]
struct LutCache {
    int8: Vec<((QuantParams, QuantParams), Arc<ProductLut>)>,
    int4: Vec<((QuantParams, QuantParams4, Lut4Order), Arc<ProductLut4>)>,
}

impl LutCache {
    fn int8(&mut self, m: &dyn Multiplier, a: QuantParams, b: QuantParams) -> Arc<ProductLut> {
        if let Some((_, lut)) = self.int8.iter().find(|((ca, cb), _)| *ca == a && *cb == b) {
            return lut.clone();
        }
        let lut = Arc::new(ProductLut::build(m, a, b));
        self.int8.push(((a, b), lut.clone()));
        lut
    }

    fn int4(
        &mut self,
        m: &dyn Multiplier,
        act: QuantParams,
        w: QuantParams4,
        order: Lut4Order,
    ) -> Arc<ProductLut4> {
        if let Some((_, lut)) =
            self.int4.iter().find(|((ca, cw, co), _)| *ca == act && *cw == w && *co == order)
        {
            return lut.clone();
        }
        let lut = Arc::new(ProductLut4::build(m, act, w, order));
        self.int4.push(((act, w, order), lut.clone()));
        lut
    }
}

/// Per-step shapes resolved for one input item shape.
struct ResolvedShape {
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
}

/// Shape inference result for one per-item input shape: per-step shapes and
/// workspace sizing. Computed on the first `predict_batch` call and cached.
struct Layout {
    item_shape: Vec<usize>,
    resolved: Vec<ResolvedShape>,
    out_shape: Vec<usize>,
    out_len: usize,
    /// Max intermediate activation length (sizes each ping-pong buffer).
    buf_len: usize,
    /// Max conv patch-gather buffer length.
    gather_len: usize,
    /// Max intermediate code length **per item** (the `u8` ping-pong
    /// buffers of a quantized plan scale with the worker's item group;
    /// zero for f32 plans).
    qbuf_len: usize,
    /// Max `u8` patch-gather buffer length (quantized convs; group
    /// independent — conv tiles are capped at [`QCONV_TILE`] columns).
    qgather_len: usize,
    /// Max `f32` accumulator-tile length for quantized convs (group
    /// independent, same cap).
    facc_len: usize,
    /// Max quantized-dense width per item (the dense accumulator holds the
    /// whole item group: `group × dense_out_max`).
    dense_out_max: usize,
    /// Multiply-accumulates per item (parallelization heuristic).
    item_macs: usize,
}

/// Reusable per-worker buffers: two ping-pong activation buffers and the
/// conv patch-gather buffer.
#[derive(Default)]
struct Workspace {
    a: Vec<f32>,
    b: Vec<f32>,
    gather: Vec<f32>,
    /// `u8` ping-pong code buffers and patch gather (quantized plans only).
    qa: Vec<u8>,
    qb: Vec<u8>,
    qgather: Vec<u8>,
    /// `f32` accumulator tile for the LUT GEMMs (quantized plans only).
    facc: Vec<f32>,
}

impl Workspace {
    /// Grow buffers to the layout's requirements for a worker serving item
    /// groups of up to `group` items, counting growths.
    fn ensure(&mut self, layout: &Layout, group: usize, counter: &AtomicU64) {
        for (buf, want) in [
            (&mut self.a, layout.buf_len),
            (&mut self.b, layout.buf_len),
            (&mut self.gather, layout.gather_len),
            (&mut self.facc, layout.facc_len.max(group * layout.dense_out_max)),
        ] {
            if buf.len() < want {
                buf.resize(want, 0.0);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        for (buf, want) in [
            (&mut self.qa, group * layout.qbuf_len),
            (&mut self.qb, group * layout.qbuf_len),
            (&mut self.qgather, layout.qgather_len),
        ] {
            if buf.len() < want {
                buf.resize(want, 0);
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// A worker's execution state: a workspace checked out of the plan's pool
/// (returned on drop) and a per-worker arithmetic kernel.
struct WorkerState<'p> {
    pool: &'p Mutex<Vec<Workspace>>,
    ws: Workspace,
    kernel: Option<Box<dyn BatchKernel + Send + 'p>>,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        self.pool.lock().expect("workspace pool lock").push(std::mem::take(&mut self.ws));
    }
}

/// Which buffer currently holds the step input.
#[derive(Clone, Copy)]
enum SrcSlot {
    Input,
    A,
    B,
}

/// A network compiled for serving: pre-decomposed weights, fused conv
/// tiles, and a reusable workspace arena (see the module docs).
pub struct InferencePlan {
    pub(crate) multiplier: Option<Arc<dyn Multiplier>>,
    pub(crate) steps: Vec<Step>,
    /// Index of the last step that writes output (`None` if every step is a
    /// shape-only no-op).
    last_write: Option<usize>,
    pub(crate) precision: PlanPrecision,
    layout: Mutex<Option<Arc<Layout>>>,
    pool: Mutex<Vec<Workspace>>,
    workspace_allocs: AtomicU64,
}

impl InferencePlan {
    /// Assemble a plan directly from executable steps — the snapshot-load
    /// path (`crate::snapshot`), which reconstructs steps over mapped
    /// storage. Derived state (`last_write`, layout cache, workspace pool)
    /// is rebuilt exactly as the compile paths build it.
    pub(crate) fn from_steps(
        multiplier: Option<Arc<dyn Multiplier>>,
        steps: Vec<Step>,
        precision: PlanPrecision,
    ) -> InferencePlan {
        let last_write = steps.iter().rposition(|s| !matches!(s, Step::Flatten));
        InferencePlan {
            multiplier,
            steps,
            last_write,
            precision,
            layout: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            workspace_allocs: AtomicU64::new(0),
        }
    }
    /// Compile `network` against `multiplier` (pass
    /// `network.multiplier().cloned()` to match the installed one).
    ///
    /// Returns `None` if any layer has no compiled form
    /// ([`crate::Layer::compile_eval`] returned `None`), or if any
    /// weight-bearing layer carries a multiplier that disagrees with
    /// `multiplier` — a plan compiled past such a mismatch would silently
    /// diverge from `forward(Mode::Eval)`. Callers then fall back to the
    /// per-layer `forward`.
    pub fn compile(
        network: &Network,
        multiplier: Option<Arc<dyn Multiplier>>,
    ) -> Option<InferencePlan> {
        let mut steps: Vec<Step> = Vec::new();
        for layer in network.layers() {
            match layer.compile_eval()? {
                CompiledLayer::Identity => {}
                CompiledLayer::Relu => match steps.last_mut() {
                    Some(Step::Conv { fuse_relu, .. }) | Some(Step::Dense { fuse_relu, .. })
                        if !*fuse_relu =>
                    {
                        *fuse_relu = true;
                    }
                    _ => steps.push(Step::Relu),
                },
                CompiledLayer::Conv2d { weight, bias, stride, pad, multiplier: layer_mult } => {
                    if !same_multiplier(&multiplier, &layer_mult) {
                        return None;
                    }
                    let (cout, cin, kh, kw) = (
                        weight.shape()[0],
                        weight.shape()[1],
                        weight.shape()[2],
                        weight.shape()[3],
                    );
                    let wmat = weight.into_vec();
                    let weights = if multiplier.is_some() {
                        ConvWeights::Prepared(PreparedOperands::from_matrix(
                            &wmat,
                            cout,
                            cin * kh * kw,
                        ))
                    } else {
                        ConvWeights::Raw(Storage::Owned(wmat))
                    };
                    steps.push(Step::Conv {
                        weights,
                        bias: bias.into_vec(),
                        cout,
                        cin,
                        kh,
                        kw,
                        stride,
                        pad,
                        fuse_relu: false,
                    });
                }
                CompiledLayer::Dense { weight, bias, multiplier: layer_mult } => {
                    if !same_multiplier(&multiplier, &layer_mult) {
                        return None;
                    }
                    let (out_features, in_features) = (weight.shape()[0], weight.shape()[1]);
                    let wt = transpose2d(&weight).into_vec();
                    // Classify through the serving kernel so each kernel's
                    // sweeps get exactly the class granularity they expect
                    // (kernel-less plans run the raw native loop and never
                    // read the classes).
                    let wt_class = match &multiplier {
                        Some(m) if out_features > 0 => {
                            let classifier = m.batch_kernel();
                            wt.chunks(out_features).map(|r| classifier.classify_rhs(r)).collect()
                        }
                        _ => vec![RowClass::Normal; in_features],
                    };
                    steps.push(Step::Dense {
                        wt: Storage::Owned(wt),
                        wt_class,
                        bias: bias.into_vec(),
                        in_features,
                        out_features,
                        fuse_relu: false,
                    });
                }
                CompiledLayer::MaxPool2d { kernel, stride } => {
                    steps.push(Step::MaxPool { window: kernel, stride });
                }
                CompiledLayer::Flatten => steps.push(Step::Flatten),
                CompiledLayer::BatchNorm { mean, var, gamma, beta, eps } => {
                    let denom: Vec<f32> = var.iter().map(|&v| (v + eps).sqrt()).collect();
                    steps.push(Step::BatchNorm { mean, denom, gamma, beta });
                }
                CompiledLayer::QuantAct { bits } => steps.push(Step::QuantAct { bits }),
            }
        }
        let last_write = steps.iter().rposition(|s| !matches!(s, Step::Flatten));
        Some(InferencePlan {
            multiplier,
            steps,
            last_write,
            precision: PlanPrecision::F32,
            layout: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            workspace_allocs: AtomicU64::new(0),
        })
    }

    /// Compile `network` into an **int8 serving plan**: weights are
    /// quantized per tensor, activation ranges are calibrated by running
    /// `calibration` (a representative `[N, ...]` sample batch) through the
    /// f32 plan, and every conv/dense GEMM becomes a
    /// [`da_arith::quantized::lut_gemm`] gather over a per-layer
    /// [`ProductLut`] built from the *actual* multiplier — gate-level kinds
    /// included, so the table is exact w.r.t. the hardware model it
    /// replaces. Plans without a multiplier quantize against native `f32`
    /// products.
    ///
    /// The quantized plan intentionally does **not** reproduce the f32
    /// plan's logits bit for bit — int8 codes cannot — but it is itself
    /// fully deterministic, bit-identical to the scalar quantized reference
    /// GEMM (`lut_gemm_reference`), and identical across serving schedules,
    /// so the batch-server conformance contract carries over unchanged.
    /// Accuracy stays within a whisker of the f32 plan (bounded in-test on
    /// LeNet/MNIST).
    ///
    /// Returns `None` when [`InferencePlan::compile`] would (uncompilable
    /// layer, multiplier mismatch), or when the stack contains layers with
    /// no quantized form (batch norm, DoReFa activation quantizers) —
    /// callers fall back to f32 serving.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is not a non-empty batch of the shape the
    /// network serves.
    pub fn compile_quantized(
        network: &Network,
        multiplier: Option<Arc<dyn Multiplier>>,
        calibration: &Tensor,
    ) -> Option<InferencePlan> {
        let f32_plan = InferencePlan::compile(network, multiplier.clone())?;
        // Every step must have a quantized form before paying for the
        // calibration pass and the LUT builds.
        if f32_plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::BatchNorm { .. } | Step::QuantAct { .. }))
        {
            return None;
        }
        let (input_range, step_ranges) = f32_plan.observe_ranges(calibration);
        let lut_mult: Arc<dyn Multiplier> =
            multiplier.clone().unwrap_or_else(|| Arc::new(ExactMultiplier));
        let mut lut_cache = LutCache::default();

        let mut act = QuantParams::from_range(input_range.0, input_range.1);
        let mut steps = vec![Step::QuantizeInput { params: act }];
        for (t, step) in f32_plan.steps.iter().enumerate() {
            match step {
                Step::Conv { weights, bias, cout, cin, kh, kw, stride, pad, fuse_relu } => {
                    let wmat: Vec<f32> = match weights {
                        ConvWeights::Raw(w) => w.as_slice().to_vec(),
                        ConvWeights::Prepared(p) => (0..p.rows())
                            .flat_map(|r| p.row(r).iter().map(|op| op.value()))
                            .collect(),
                    };
                    let (wlo, whi) = QuantParams::observe(&wmat);
                    let wq = QuantParams::from_range(wlo, whi);
                    let qweight: Vec<u8> = wmat.iter().map(|&v| wq.quantize(v)).collect();
                    let (olo, ohi) = step_ranges[t];
                    let out_params = QuantParams::from_range(olo, ohi);
                    steps.push(Step::QConv {
                        qweight: Storage::Owned(qweight),
                        lut: lut_cache.int8(&*lut_mult, wq, act),
                        bias: bias.clone(),
                        cout: *cout,
                        cin: *cin,
                        kh: *kh,
                        kw: *kw,
                        stride: *stride,
                        pad: *pad,
                        fuse_relu: *fuse_relu,
                        out: QOut::Codes(out_params),
                    });
                    act = out_params;
                }
                Step::Dense { wt, bias, in_features, out_features, fuse_relu, .. } => {
                    let wt = wt.as_slice();
                    let (wlo, whi) = QuantParams::observe(wt);
                    let wq = QuantParams::from_range(wlo, whi);
                    let qwt: Vec<u8> = wt.iter().map(|&v| wq.quantize(v)).collect();
                    let (olo, ohi) = step_ranges[t];
                    let out_params = QuantParams::from_range(olo, ohi);
                    steps.push(Step::QDense {
                        qwt: Storage::Owned(qwt),
                        lut: lut_cache.int8(&*lut_mult, act, wq),
                        bias: bias.clone(),
                        in_features: *in_features,
                        out_features: *out_features,
                        fuse_relu: *fuse_relu,
                        out: QOut::Codes(out_params),
                    });
                    act = out_params;
                }
                Step::MaxPool { window, stride } => {
                    steps.push(Step::QMaxPool { window: *window, stride: *stride });
                }
                Step::Relu => steps.push(Step::QRelu { zero_point: act.zero_point() }),
                Step::Flatten => steps.push(Step::Flatten),
                Step::BatchNorm { .. } | Step::QuantAct { .. } => return None,
                _ => unreachable!("f32 plans contain only f32 steps"),
            }
        }
        // The plan's logits are f32: a final conv/dense step emits them
        // directly from its accumulator; anything else gets an explicit
        // decode step.
        match steps.iter_mut().rev().find(|s| !matches!(s, Step::Flatten)) {
            Some(Step::QConv { out, .. }) | Some(Step::QDense { out, .. }) => *out = QOut::Float,
            _ => steps.push(Step::QDequantize { params: act }),
        }
        let last_write = steps.iter().rposition(|s| !matches!(s, Step::Flatten));
        Some(InferencePlan {
            multiplier,
            steps,
            last_write,
            precision: PlanPrecision::Int8,
            layout: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            workspace_allocs: AtomicU64::new(0),
        })
    }

    /// Compile `network` into an **int4-weight serving plan**: like
    /// [`InferencePlan::compile_quantized`], but each conv/dense layer's
    /// weights are additionally quantized to **16 codes** and the layer runs
    /// the in-register shuffle GEMM ([`da_arith::quantized::lut4_gemm`]) —
    /// unless the calibration batch measures too large an output gap
    /// against the int8 layer, in which case that layer alone keeps the
    /// int8 gather ([`INT4_FALLBACK_GAP`]; see
    /// [`InferencePlan::int4_layer_mix`] for the resulting split).
    ///
    /// The gap is measured layer-locally on calibration *codes*: both
    /// candidate layers consume the same upstream activations (produced by
    /// the layers actually chosen so far), so the decision reflects the
    /// plan that will really serve. Like the int8 plan, the result is
    /// deterministic and schedule-independent; it is bit-identical to the
    /// scalar int4 reference GEMM on every int4 layer and to the scalar
    /// int8 reference on every fallback layer.
    ///
    /// Returns `None` exactly when [`InferencePlan::compile_quantized`]
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `calibration` is not a non-empty batch of the shape the
    /// network serves.
    pub fn compile_quantized_int4(
        network: &Network,
        multiplier: Option<Arc<dyn Multiplier>>,
        calibration: &Tensor,
    ) -> Option<InferencePlan> {
        let f32_plan = InferencePlan::compile(network, multiplier.clone())?;
        if f32_plan
            .steps
            .iter()
            .any(|s| matches!(s, Step::BatchNorm { .. } | Step::QuantAct { .. }))
        {
            return None;
        }
        let (input_range, step_ranges) = f32_plan.observe_ranges(calibration);
        let lut_mult: Arc<dyn Multiplier> =
            multiplier.clone().unwrap_or_else(|| Arc::new(ExactMultiplier));
        let mut lut_cache = LutCache::default();

        let layout = f32_plan.layout_for(&calibration.shape()[1..]);
        let item_in: usize = layout.item_shape.iter().product();
        let ncal = calibration.shape()[0];
        let xd = calibration.data();

        let mut act = QuantParams::from_range(input_range.0, input_range.1);
        // Calibration activations as codes, `[ncal × current_len]`, advanced
        // through each *chosen* step so downstream gap measurements see the
        // codes the compiled plan will actually produce.
        let mut cal = vec![0u8; ncal * item_in];
        act.quantize_slice(&xd[..ncal * item_in], &mut cal);
        let mut next_cal: Vec<u8> = Vec::new();

        let mut steps = vec![Step::QuantizeInput { params: act }];
        for (t, step) in f32_plan.steps.iter().enumerate() {
            let shapes = &layout.resolved[t];
            let in_len: usize = shapes.in_shape.iter().product();
            let out_len: usize = shapes.out_shape.iter().product();
            match step {
                Step::Conv { weights, bias, cout, cin, kh, kw, stride, pad, fuse_relu } => {
                    let wmat: Vec<f32> = match weights {
                        ConvWeights::Raw(w) => w.as_slice().to_vec(),
                        ConvWeights::Prepared(p) => (0..p.rows())
                            .flat_map(|r| p.row(r).iter().map(|op| op.value()))
                            .collect(),
                    };
                    let k = cin * kh * kw;
                    let (wlo, whi) = QuantParams::observe(&wmat);
                    let wq = QuantParams::from_range(wlo, whi);
                    let qweight: Vec<u8> = wmat.iter().map(|&v| wq.quantize(v)).collect();
                    let w4 = QuantParams4::from_range(wlo, whi);
                    let q4: Vec<u8> = wmat.iter().map(|&v| w4.quantize(v)).collect();
                    let mut qweight_t = vec![0u8; k * cout];
                    for co in 0..*cout {
                        for kk in 0..k {
                            qweight_t[kk * cout + co] = q4[co * k + kk];
                        }
                    }
                    let lut8 = lut_cache.int8(&*lut_mult, wq, act);
                    let lut4 = lut_cache.int4(&*lut_mult, act, w4, Lut4Order::WeightsLeft);

                    // Gap measurement: both candidates over the calibration
                    // codes, compared post-bias pre-activation.
                    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
                    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
                    let p_total = oh * ow;
                    let pad_code = act.zero_point();
                    let mut g8 = vec![0u8; k * p_total];
                    let mut g4 = vec![0u8; p_total * k];
                    let mut all8 = vec![0.0f32; ncal * cout * p_total];
                    let mut all4 = vec![0.0f32; ncal * p_total * cout];
                    for i in 0..ncal {
                        let item = &cal[i * in_len..(i + 1) * in_len];
                        gather_patches_u8(
                            item, *cin, h, w, *kh, *kw, *stride, *pad, ow, 0, p_total, p_total, 0,
                            &mut g8, pad_code,
                        );
                        let acc8 = &mut all8[i * cout * p_total..(i + 1) * cout * p_total];
                        lut_gemm(&lut8, &qweight, *cout, k, &g8, p_total, acc8, p_total);
                        gather_patch_rows_u8(
                            item, *cin, h, w, *kh, *kw, *stride, *pad, ow, 0, p_total, &mut g4,
                            pad_code,
                        );
                        let acc4 = &mut all4[i * p_total * cout..(i + 1) * p_total * cout];
                        lut4_gemm(&lut4, &g4, p_total, k, &qweight_t, *cout, acc4, *cout);
                    }
                    let mut spread = (f32::INFINITY, f32::NEG_INFINITY);
                    let mut max_diff = 0.0f32;
                    for i in 0..ncal {
                        for co in 0..*cout {
                            for p in 0..p_total {
                                let y8 = all8[(i * cout + co) * p_total + p] + bias[co];
                                let y4 = all4[(i * p_total + p) * cout + co] + bias[co];
                                spread.0 = spread.0.min(y8);
                                spread.1 = spread.1.max(y8);
                                max_diff = max_diff.max((y4 - y8).abs());
                            }
                        }
                    }
                    let (olo, ohi) = step_ranges[t];
                    let out_params = QuantParams::from_range(olo, ohi);
                    let use_int4 = gap_accepts_int4(max_diff, spread);
                    // Advance calibration codes through the chosen layer.
                    next_cal.clear();
                    next_cal.resize(ncal * out_len, 0);
                    for i in 0..ncal {
                        for co in 0..*cout {
                            for p in 0..p_total {
                                let acc = if use_int4 {
                                    all4[(i * p_total + p) * cout + co]
                                } else {
                                    all8[(i * cout + co) * p_total + p]
                                };
                                let v = acc + bias[co];
                                let v = if *fuse_relu { v.max(0.0) } else { v };
                                next_cal[i * out_len + co * p_total + p] = out_params.quantize(v);
                            }
                        }
                    }
                    std::mem::swap(&mut cal, &mut next_cal);
                    if use_int4 {
                        steps.push(Step::QConv4 {
                            qweight_t: Storage::Owned(qweight_t),
                            lut: lut4,
                            bias: bias.clone(),
                            cout: *cout,
                            cin: *cin,
                            kh: *kh,
                            kw: *kw,
                            stride: *stride,
                            pad: *pad,
                            fuse_relu: *fuse_relu,
                            out: QOut::Codes(out_params),
                        });
                    } else {
                        steps.push(Step::QConv {
                            qweight: Storage::Owned(qweight),
                            lut: lut8,
                            bias: bias.clone(),
                            cout: *cout,
                            cin: *cin,
                            kh: *kh,
                            kw: *kw,
                            stride: *stride,
                            pad: *pad,
                            fuse_relu: *fuse_relu,
                            out: QOut::Codes(out_params),
                        });
                    }
                    act = out_params;
                }
                Step::Dense { wt, bias, in_features, out_features, fuse_relu, .. } => {
                    let wt = wt.as_slice();
                    let (inf, outf) = (*in_features, *out_features);
                    let (wlo, whi) = QuantParams::observe(wt);
                    let wq = QuantParams::from_range(wlo, whi);
                    let qwt: Vec<u8> = wt.iter().map(|&v| wq.quantize(v)).collect();
                    let w4 = QuantParams4::from_range(wlo, whi);
                    let qwt4: Vec<u8> = wt.iter().map(|&v| w4.quantize(v)).collect();
                    let lut8 = lut_cache.int8(&*lut_mult, act, wq);
                    let lut4 = lut_cache.int4(&*lut_mult, act, w4, Lut4Order::ActivationsLeft);

                    let mut all8 = vec![0.0f32; ncal * outf];
                    for i in 0..ncal {
                        lut_gemm(
                            &lut8,
                            &cal[i * inf..(i + 1) * inf],
                            1,
                            inf,
                            &qwt,
                            outf,
                            &mut all8[i * outf..(i + 1) * outf],
                            outf,
                        );
                    }
                    let mut all4 = vec![0.0f32; ncal * outf];
                    lut4_gemm(&lut4, &cal[..ncal * inf], ncal, inf, &qwt4, outf, &mut all4, outf);
                    let mut spread = (f32::INFINITY, f32::NEG_INFINITY);
                    let mut max_diff = 0.0f32;
                    for i in 0..ncal * outf {
                        let b = bias[i % outf];
                        let (y8, y4) = (all8[i] + b, all4[i] + b);
                        spread.0 = spread.0.min(y8);
                        spread.1 = spread.1.max(y8);
                        max_diff = max_diff.max((y4 - y8).abs());
                    }
                    let (olo, ohi) = step_ranges[t];
                    let out_params = QuantParams::from_range(olo, ohi);
                    let use_int4 = gap_accepts_int4(max_diff, spread);
                    next_cal.clear();
                    next_cal.resize(ncal * out_len, 0);
                    for i in 0..ncal * outf {
                        let acc = if use_int4 { all4[i] } else { all8[i] };
                        let v = acc + bias[i % outf];
                        let v = if *fuse_relu { v.max(0.0) } else { v };
                        next_cal[i] = out_params.quantize(v);
                    }
                    std::mem::swap(&mut cal, &mut next_cal);
                    if use_int4 {
                        steps.push(Step::QDense4 {
                            qwt: Storage::Owned(qwt4),
                            lut: lut4,
                            bias: bias.clone(),
                            in_features: inf,
                            out_features: outf,
                            fuse_relu: *fuse_relu,
                            out: QOut::Codes(out_params),
                        });
                    } else {
                        steps.push(Step::QDense {
                            qwt: Storage::Owned(qwt),
                            lut: lut8,
                            bias: bias.clone(),
                            in_features: inf,
                            out_features: outf,
                            fuse_relu: *fuse_relu,
                            out: QOut::Codes(out_params),
                        });
                    }
                    act = out_params;
                }
                Step::MaxPool { window, stride } => {
                    let (c, h, w) = (shapes.in_shape[0], shapes.in_shape[1], shapes.in_shape[2]);
                    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
                    next_cal.clear();
                    next_cal.resize(ncal * out_len, 0);
                    for i in 0..ncal {
                        let src = &cal[i * in_len..(i + 1) * in_len];
                        let dst = &mut next_cal[i * out_len..(i + 1) * out_len];
                        for ci in 0..c {
                            let plane = &src[ci * h * w..(ci + 1) * h * w];
                            for oy in 0..oh {
                                for ox in 0..ow {
                                    let mut best = 0u8;
                                    for ky in 0..*window {
                                        for kx in 0..*window {
                                            let v =
                                                plane[(oy * stride + ky) * w + (ox * stride + kx)];
                                            best = best.max(v);
                                        }
                                    }
                                    dst[(ci * oh + oy) * ow + ox] = best;
                                }
                            }
                        }
                    }
                    std::mem::swap(&mut cal, &mut next_cal);
                    steps.push(Step::QMaxPool { window: *window, stride: *stride });
                }
                Step::Relu => {
                    let zp = act.zero_point();
                    for v in cal.iter_mut() {
                        *v = (*v).max(zp);
                    }
                    steps.push(Step::QRelu { zero_point: zp });
                }
                Step::Flatten => steps.push(Step::Flatten),
                Step::BatchNorm { .. } | Step::QuantAct { .. } => return None,
                _ => unreachable!("f32 plans contain only f32 steps"),
            }
        }
        match steps.iter_mut().rev().find(|s| !matches!(s, Step::Flatten)) {
            Some(Step::QConv { out, .. })
            | Some(Step::QDense { out, .. })
            | Some(Step::QConv4 { out, .. })
            | Some(Step::QDense4 { out, .. }) => *out = QOut::Float,
            _ => steps.push(Step::QDequantize { params: act }),
        }
        let last_write = steps.iter().rposition(|s| !matches!(s, Step::Flatten));
        Some(InferencePlan {
            multiplier,
            steps,
            last_write,
            precision: PlanPrecision::Int4Weights,
            layout: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            workspace_allocs: AtomicU64::new(0),
        })
    }

    /// Run `x` through the f32 steps once, recording the `(min, max)` of the
    /// network input and of every step's output over the whole batch — the
    /// calibration pass behind [`InferencePlan::compile_quantized`].
    fn observe_ranges(&self, x: &Tensor) -> ((f32, f32), Vec<(f32, f32)>) {
        assert!(x.shape().len() >= 2, "calibration expects a batched [N, ...] input");
        let n = x.shape()[0];
        assert!(n > 0, "calibration batch must be non-empty");
        let layout = self.layout_for(&x.shape()[1..]);
        let item_in: usize = layout.item_shape.iter().product();
        let xd = x.data();
        let input_range = QuantParams::observe(xd);

        let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); self.steps.len()];
        let mut state = self.worker_state(&layout, 1);
        let mut cur: Vec<f32> = Vec::new();
        let mut next: Vec<f32> = Vec::new();
        for i in 0..n {
            cur.clear();
            cur.extend_from_slice(&xd[i * item_in..(i + 1) * item_in]);
            for (t, step) in self.steps.iter().enumerate() {
                if matches!(step, Step::Flatten) {
                    ranges[t] = ranges[t.saturating_sub(1)];
                    continue;
                }
                let shapes = &layout.resolved[t];
                let out_len: usize = shapes.out_shape.iter().product();
                next.clear();
                next.resize(out_len, 0.0);
                exec_step(
                    step,
                    shapes,
                    &cur,
                    &mut next,
                    &mut state.ws.gather,
                    state.kernel.as_deref_mut(),
                );
                let (lo, hi) = QuantParams::observe(&next);
                ranges[t].0 = ranges[t].0.min(lo);
                ranges[t].1 = ranges[t].1.max(hi);
                std::mem::swap(&mut cur, &mut next);
            }
        }
        (input_range, ranges)
    }

    /// The numeric mode this plan serves in.
    pub fn precision(&self) -> PlanPrecision {
        self.precision
    }

    /// The plan's externally observable serving contract — input constraint
    /// of the first weight-bearing step, logit width of the last, and the
    /// numeric family. Used by the hot-reload shape handshake to refuse a
    /// replacement that would silently change what callers get back.
    pub fn interface(&self) -> PlanInterface {
        let mut input = None;
        let mut output_features = None;
        for s in &self.steps {
            match s {
                Step::Conv { cin, .. } | Step::QConv { cin, .. } | Step::QConv4 { cin, .. }
                    if input.is_none() =>
                {
                    input = Some(PlanInput::Conv { cin: *cin });
                }
                Step::Dense { in_features, out_features, .. }
                | Step::QDense { in_features, out_features, .. }
                | Step::QDense4 { in_features, out_features, .. } => {
                    if input.is_none() {
                        input = Some(PlanInput::Dense { features: *in_features });
                    }
                    output_features = Some(*out_features);
                }
                _ => {}
            }
        }
        let family = match self.precision {
            PlanPrecision::F32 => PrecisionFamily::Float,
            PlanPrecision::Int8 | PlanPrecision::Int4Weights => PrecisionFamily::Quantized,
        };
        PlanInterface { input, output_features, family }
    }

    /// How [`InferencePlan::compile_quantized_int4`] split the GEMM layers:
    /// `(int4 shuffle layers, int8 gather fallback layers)`. Both counts are
    /// zero for f32 plans; the second is the full GEMM count for plain int8
    /// plans.
    pub fn int4_layer_mix(&self) -> (usize, usize) {
        let (mut int4, mut int8) = (0usize, 0usize);
        for s in &self.steps {
            match s {
                Step::QConv4 { .. } | Step::QDense4 { .. } => int4 += 1,
                Step::QConv { .. } | Step::QDense { .. } => int8 += 1,
                _ => {}
            }
        }
        (int4, int8)
    }

    /// Product-table sharing across the plan's GEMM steps:
    /// `(LUT-bearing steps, distinct table allocations)`. The second number
    /// drops below the first when layers with identical quantizer pairs
    /// share one `Arc`'d table (see [`InferencePlan::compile_quantized`]).
    pub fn product_lut_sharing(&self) -> (usize, usize) {
        let mut steps = 0usize;
        let mut seen8: Vec<*const ProductLut> = Vec::new();
        let mut seen4: Vec<*const ProductLut4> = Vec::new();
        for s in &self.steps {
            match s {
                Step::QConv { lut, .. } | Step::QDense { lut, .. } => {
                    steps += 1;
                    let p = Arc::as_ptr(lut);
                    if !seen8.contains(&p) {
                        seen8.push(p);
                    }
                }
                Step::QConv4 { lut, .. } | Step::QDense4 { lut, .. } => {
                    steps += 1;
                    let p = Arc::as_ptr(lut);
                    if !seen4.contains(&p) {
                        seen4.push(p);
                    }
                }
                _ => {}
            }
        }
        (steps, seen8.len() + seen4.len())
    }

    /// The multiplier the plan was compiled against.
    pub fn multiplier(&self) -> Option<&Arc<dyn Multiplier>> {
        self.multiplier.as_ref()
    }

    /// Number of executable steps (fused layers count once; eval-mode no-ops
    /// are dropped).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// How many workspace-buffer allocations (or growths) the plan has
    /// performed. Steady-state serving with a fixed input shape stops
    /// growing this counter after the first call — asserted by the
    /// equivalence tests.
    pub fn workspace_allocations(&self) -> u64 {
        self.workspace_allocs.load(Ordering::Relaxed)
    }

    /// Inference logits for a `[N, ...]` batch — bit-identical to
    /// `Network::forward(Mode::Eval)` on the network the plan was compiled
    /// from (with the same multiplier).
    ///
    /// # Panics
    ///
    /// Panics on rank or shape mismatches, with the same messages as the
    /// per-layer forward pass.
    pub fn predict_batch(&self, x: &Tensor) -> Tensor {
        assert!(x.shape().len() >= 2, "predict_batch expects a batched [N, ...] input");
        let n = x.shape()[0];
        let layout = self.layout_for(&x.shape()[1..]);
        let item_in: usize = layout.item_shape.iter().product();
        let out_len = layout.out_len;
        let mut out = vec![0.0f32; n * out_len];
        let xd = x.data();

        let parallel = n > 1 && n * layout.item_macs >= PAR_MIN_MACS;
        if matches!(self.precision, PlanPrecision::Int8 | PlanPrecision::Int4Weights) {
            // Layer-major batched execution: each worker takes a contiguous
            // *group* of items and runs every step for the whole group —
            // product tables stay hot across items and small conv planes
            // share wide tiles. Per-element accumulation order is
            // group-independent, so results stay bit-identical to
            // single-item runs (conformance-tested).
            let threads = if parallel {
                std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
            } else {
                1
            };
            // `max(1)` is defensive: `Tensor` rejects zero dimensions, so
            // `n == 0` cannot reach here today, but a zero chunk size
            // would panic in the parallel splitter if it ever did.
            let group = n.div_ceil(threads).max(1);
            par_map_chunks_with(
                &mut out,
                group * out_len,
                || self.worker_state(&layout, group),
                |state, gi, piece| {
                    let items = piece.len() / out_len;
                    let xs = &xd[gi * group * item_in..][..items * item_in];
                    self.run_batch_q(&layout, state, xs, items, piece);
                },
            );
        } else {
            let run = |state: &mut WorkerState<'_>, i: usize, piece: &mut [f32]| {
                self.run_item(&layout, state, &xd[i * item_in..(i + 1) * item_in], piece);
            };
            if parallel {
                par_map_chunks_with(&mut out, out_len, || self.worker_state(&layout, 1), run);
            } else {
                let mut state = self.worker_state(&layout, 1);
                for (i, piece) in out.chunks_mut(out_len).enumerate() {
                    run(&mut state, i, piece);
                }
            }
        }

        let mut shape = vec![n];
        shape.extend_from_slice(&layout.out_shape);
        Tensor::from_vec(out, &shape)
    }

    /// Predicted class per batch item (the shared
    /// [`crate::loss::argmax_logits`] tie behavior: last maximum wins).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.predict_batch(x);
        let k: usize = logits.shape()[1..].iter().product();
        logits.data().chunks(k).map(crate::loss::argmax_logits).collect()
    }

    /// Check out a workspace sized for `group`-item batches (reusing pooled
    /// buffers) and build the per-worker kernel (quantized plans gather
    /// from their LUTs instead of running batch kernels, so they skip the
    /// kernel).
    fn worker_state(&self, layout: &Layout, group: usize) -> WorkerState<'_> {
        let mut ws = self.pool.lock().expect("workspace pool lock").pop().unwrap_or_default();
        ws.ensure(layout, group, &self.workspace_allocs);
        let kernel = match self.precision {
            PlanPrecision::F32 => self.multiplier.as_ref().map(|m| m.batch_kernel()),
            PlanPrecision::Int8 | PlanPrecision::Int4Weights => None,
        };
        WorkerState { pool: &self.pool, ws, kernel }
    }

    /// The cached layout for `item_shape`, computing it on first use (or
    /// when the serving shape changes).
    fn layout_for(&self, item_shape: &[usize]) -> Arc<Layout> {
        {
            let guard = self.layout.lock().expect("layout lock");
            if let Some(layout) = &*guard {
                if layout.item_shape == item_shape {
                    return layout.clone();
                }
            }
        }
        let layout = Arc::new(self.compute_layout(item_shape));
        *self.layout.lock().expect("layout lock") = Some(layout.clone());
        layout
    }

    /// Shape inference: walk the steps once for a per-item input shape,
    /// validating like the per-layer forward would and sizing the arena.
    fn compute_layout(&self, item_shape: &[usize]) -> Layout {
        let mut shape = item_shape.to_vec();
        let mut resolved = Vec::with_capacity(self.steps.len());
        let mut buf_len = 0usize;
        let mut gather_len = 0usize;
        let mut qbuf_len = 0usize;
        let mut qgather_len = 0usize;
        let mut facc_len = 0usize;
        let mut dense_out_max = 0usize;
        let mut item_macs = 0usize;
        for step in &self.steps {
            let in_shape = shape.clone();
            let out_shape = match step {
                Step::Conv { cout, cin, kh, kw, stride, pad, .. }
                | Step::QConv { cout, cin, kh, kw, stride, pad, .. }
                | Step::QConv4 { cout, cin, kh, kw, stride, pad, .. } => {
                    assert_eq!(in_shape.len(), 3, "Conv2d expects [N, C, H, W]");
                    assert_eq!(in_shape[0], *cin, "input channel mismatch");
                    let geom = ConvGeometry {
                        input: (in_shape[1], in_shape[2]),
                        kernel: (*kh, *kw),
                        stride: *stride,
                        pad: *pad,
                    };
                    let (oh, ow) = geom.output();
                    let k = cin * kh * kw;
                    if matches!(step, Step::QConv { .. }) {
                        // Small planes share one tile across an item group;
                        // large planes split into balanced tiles. Either
                        // way columns stay under the QCONV_TILE cap.
                        let p_total = oh * ow;
                        let tile_cap = if p_total >= QCONV_TILE {
                            qconv_tile_width(p_total)
                        } else {
                            (QCONV_TILE / p_total) * p_total
                        };
                        qgather_len = qgather_len.max(k * tile_cap);
                        facc_len = facc_len.max(cout * tile_cap);
                    } else if matches!(step, Step::QConv4 { .. }) {
                        // Transposed tiling: pixel rows × tap columns, with
                        // the accumulator `cout` wide per pixel row.
                        let p_tile = QCONV_TILE.min(oh * ow).max(1);
                        qgather_len = qgather_len.max(p_tile * k);
                        facc_len = facc_len.max(p_tile * cout);
                    } else {
                        gather_len = gather_len.max(k * CONV_TILE.min(oh * ow));
                    }
                    item_macs += cout * k * oh * ow;
                    vec![*cout, oh, ow]
                }
                Step::Dense { in_features, out_features, .. }
                | Step::QDense { in_features, out_features, .. }
                | Step::QDense4 { in_features, out_features, .. } => {
                    assert_eq!(in_shape.len(), 1, "Dense expects [N, In]");
                    assert_eq!(in_shape[0], *in_features, "feature mismatch");
                    if matches!(step, Step::QDense { .. } | Step::QDense4 { .. }) {
                        dense_out_max = dense_out_max.max(*out_features);
                    }
                    item_macs += in_features * out_features;
                    vec![*out_features]
                }
                Step::MaxPool { window, stride } | Step::QMaxPool { window, stride } => {
                    assert_eq!(in_shape.len(), 3, "MaxPool2d expects [N, C, H, W]");
                    let geom = ConvGeometry {
                        input: (in_shape[1], in_shape[2]),
                        kernel: (*window, *window),
                        stride: *stride,
                        pad: 0,
                    };
                    let (oh, ow) = geom.output();
                    vec![in_shape[0], oh, ow]
                }
                Step::Flatten => vec![in_shape.iter().product()],
                Step::Relu
                | Step::QuantAct { .. }
                | Step::QuantizeInput { .. }
                | Step::QRelu { .. }
                | Step::QDequantize { .. } => in_shape.clone(),
                Step::BatchNorm { gamma, .. } => {
                    assert!(
                        in_shape.len() == 1 || in_shape.len() == 3,
                        "BatchNorm expects [N, F] or [N, C, H, W]"
                    );
                    assert_eq!(in_shape[0], gamma.len(), "channel mismatch");
                    in_shape.clone()
                }
            };
            if !matches!(step, Step::Flatten) {
                let out_len: usize = out_shape.iter().product();
                if matches!(self.precision, PlanPrecision::Int8 | PlanPrecision::Int4Weights) {
                    // Every quantized intermediate lives in the u8 ping-pong
                    // buffers (the final f32 logits land in the caller's
                    // output row directly).
                    qbuf_len = qbuf_len.max(out_len);
                } else {
                    buf_len = buf_len.max(out_len);
                }
            }
            shape = out_shape.clone();
            resolved.push(ResolvedShape { in_shape, out_shape });
        }
        Layout {
            item_shape: item_shape.to_vec(),
            resolved,
            out_len: shape.iter().product(),
            out_shape: shape,
            buf_len,
            gather_len,
            qbuf_len,
            qgather_len,
            facc_len,
            dense_out_max,
            item_macs,
        }
    }

    /// Run every step for one item, ping-ponging activations through the
    /// workspace; the final writing step lands directly in `out_row`.
    fn run_item(
        &self,
        layout: &Layout,
        state: &mut WorkerState<'_>,
        input: &[f32],
        out_row: &mut [f32],
    ) {
        debug_assert_eq!(self.precision, PlanPrecision::F32, "int8 plans run run_batch_q");
        let Some(last_write) = self.last_write else {
            // Shape-only plan (or no layers at all): logits are the input.
            out_row.copy_from_slice(input);
            return;
        };
        let mut kernel = state.kernel.as_deref_mut();
        let Workspace { a, b, gather, .. } = &mut state.ws;
        let mut src_slot = SrcSlot::Input;
        for (t, step) in self.steps.iter().enumerate() {
            if matches!(step, Step::Flatten) {
                continue;
            }
            let shapes = &layout.resolved[t];
            let in_len: usize = shapes.in_shape.iter().product();
            let out_len: usize = shapes.out_shape.iter().product();
            let (src, dst): (&[f32], &mut [f32]) = match (src_slot, t == last_write) {
                (SrcSlot::Input, true) => (&input[..in_len], &mut out_row[..out_len]),
                (SrcSlot::Input, false) => (&input[..in_len], &mut a[..out_len]),
                (SrcSlot::A, true) => (&a[..in_len], &mut out_row[..out_len]),
                (SrcSlot::A, false) => (&a[..in_len], &mut b[..out_len]),
                (SrcSlot::B, true) => (&b[..in_len], &mut out_row[..out_len]),
                (SrcSlot::B, false) => (&b[..in_len], &mut a[..out_len]),
            };
            exec_step(step, shapes, src, dst, gather, kernel.as_deref_mut());
            if t == last_write {
                return;
            }
            src_slot = match src_slot {
                SrcSlot::Input | SrcSlot::B => SrcSlot::A,
                SrcSlot::A => SrcSlot::B,
            };
        }
    }

    /// The int8 executor, **layer-major over an item group**: quantize the
    /// group's inputs once, ping-pong activation *codes* through the `u8`
    /// workspace buffers, and run every conv/dense as a LUT-gather GEMM
    /// with fused bias/ReLU/requantize — all `n` items per step before the
    /// next step, so each layer's product table is swept while hot, small
    /// conv planes share one wide tile, and dense layers run as true
    /// multi-row GEMMs. Per output element the accumulation order is the
    /// same ascending-`k` sequence regardless of grouping, so logits are
    /// bit-identical to a single-item run (the serving contract).
    fn run_batch_q(
        &self,
        layout: &Layout,
        state: &mut WorkerState<'_>,
        xs: &[f32],
        n: usize,
        out: &mut [f32],
    ) {
        let last_write = self.last_write.expect("quantized plans always write");
        let Workspace { qa, qb, qgather, facc, .. } = &mut state.ws;
        // `true` while the current codes live in `qa` (QuantizeInput's
        // destination), flipping after every writing step.
        let mut src_is_a = true;
        for (t, step) in self.steps.iter().enumerate() {
            if matches!(step, Step::Flatten) {
                continue;
            }
            let shapes = &layout.resolved[t];
            let in_len: usize = shapes.in_shape.iter().product();
            let out_len: usize = shapes.out_shape.iter().product();
            let to_out = t == last_write;
            if let Step::QuantizeInput { params } = step {
                params.quantize_slice(&xs[..n * in_len], &mut qa[..n * out_len]);
                src_is_a = true;
                continue;
            }
            let (src, dst): (&[u8], &mut [u8]) = if src_is_a {
                (&qa[..n * in_len], &mut qb[..])
            } else {
                (&qb[..n * in_len], &mut qa[..])
            };
            match step {
                Step::QConv {
                    qweight,
                    lut,
                    bias,
                    cout,
                    cin,
                    kh,
                    kw,
                    stride,
                    pad,
                    fuse_relu,
                    out: qout,
                } => {
                    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
                    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
                    let k = cin * kh * kw;
                    let p_total = oh * ow;
                    // Padded taps gather the activation zero point — the
                    // code for exactly 0.0, matching the f32 path's zeros.
                    let pad_code = lut.b_params().zero_point();
                    // Small output planes pack several items into one tile
                    // so the gather kernels amortize table traffic.
                    let group = if p_total >= QCONV_TILE { 1 } else { QCONV_TILE / p_total };
                    let tile_width = qconv_tile_width(p_total);
                    let mut i0 = 0usize;
                    while i0 < n {
                        let g = group.min(n - i0);
                        let tile_cols = g * p_total;
                        for p0 in (0..p_total).step_by(tile_width) {
                            let cols = tile_width.min(p_total - p0);
                            let tile = if g == 1 { cols } else { tile_cols };
                            for li in 0..g {
                                gather_patches_u8(
                                    &src[(i0 + li) * in_len..(i0 + li + 1) * in_len],
                                    *cin,
                                    h,
                                    w,
                                    *kh,
                                    *kw,
                                    *stride,
                                    *pad,
                                    ow,
                                    p0,
                                    cols,
                                    tile,
                                    li * p_total,
                                    qgather,
                                    pad_code,
                                );
                            }
                            let acc = &mut facc[..cout * tile];
                            acc.fill(0.0);
                            lut_gemm(
                                lut,
                                qweight.as_slice(),
                                *cout,
                                k,
                                &qgather[..k * tile],
                                tile,
                                acc,
                                tile,
                            );
                            match qout {
                                QOut::Codes(params) => {
                                    debug_assert!(!to_out, "code output cannot be the plan output");
                                    for li in 0..g {
                                        let dst_item = (i0 + li) * out_len;
                                        for co in 0..*cout {
                                            requantize_bias_act(
                                                &acc[co * tile + li * p_total..][..cols],
                                                bias[co],
                                                *fuse_relu,
                                                params,
                                                &mut dst[dst_item + co * p_total + p0..][..cols],
                                            );
                                        }
                                    }
                                }
                                QOut::Float => {
                                    debug_assert!(to_out, "float output is the plan output");
                                    for li in 0..g {
                                        let out_item = (i0 + li) * out_len;
                                        for co in 0..*cout {
                                            let acc_row = &acc[co * tile + li * p_total..][..cols];
                                            let orow =
                                                &mut out[out_item + co * p_total + p0..][..cols];
                                            for (o, &v) in orow.iter_mut().zip(acc_row) {
                                                let v = v + bias[co];
                                                *o = if *fuse_relu { v.max(0.0) } else { v };
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        i0 += g;
                    }
                }
                Step::QDense {
                    qwt,
                    lut,
                    bias,
                    in_features,
                    out_features,
                    fuse_relu,
                    out: qout,
                } => {
                    // Per-item single-row GEMMs: the single-row path skips
                    // zero-point activation codes (ubiquitous after ReLU),
                    // which beats a multi-row sweep — the weight-code
                    // matrix stays hot across the item group either way.
                    let outf = *out_features;
                    let acc = &mut facc[..n * outf];
                    acc.fill(0.0);
                    for i in 0..n {
                        lut_gemm(
                            lut,
                            &src[i * in_features..(i + 1) * in_features],
                            1,
                            *in_features,
                            qwt.as_slice(),
                            outf,
                            &mut acc[i * outf..(i + 1) * outf],
                            outf,
                        );
                    }
                    match qout {
                        QOut::Codes(params) => {
                            debug_assert!(!to_out, "code output cannot be the plan output");
                            for i in 0..n {
                                for (j, &b) in bias.iter().enumerate() {
                                    let v = acc[i * outf + j] + b;
                                    let v = if *fuse_relu { v.max(0.0) } else { v };
                                    dst[i * out_len + j] = params.quantize(v);
                                }
                            }
                        }
                        QOut::Float => {
                            debug_assert!(to_out, "float output is the plan output");
                            for i in 0..n {
                                for (j, &b) in bias.iter().enumerate() {
                                    let v = acc[i * outf + j] + b;
                                    out[i * out_len + j] = if *fuse_relu { v.max(0.0) } else { v };
                                }
                            }
                        }
                    }
                }
                Step::QConv4 {
                    qweight_t,
                    lut,
                    bias,
                    cout,
                    cin,
                    kh,
                    kw,
                    stride,
                    pad,
                    fuse_relu,
                    out: qout,
                } => {
                    // Transposed execution: pixel rows × tap columns against
                    // `[k, Cout]` weight codes, so the 4-bit codes vary along
                    // the shuffle axis. Per output element accumulation is
                    // the same ascending-`k` order as the int8 path, and the
                    // tiling is per item, so grouping cannot change bits.
                    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
                    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
                    let k = cin * kh * kw;
                    let p_total = oh * ow;
                    let pad_code = lut.act_params().zero_point();
                    for item in 0..n {
                        let src_item = &src[item * in_len..(item + 1) * in_len];
                        for p0 in (0..p_total).step_by(QCONV_TILE) {
                            let prows = QCONV_TILE.min(p_total - p0);
                            gather_patch_rows_u8(
                                src_item, *cin, h, w, *kh, *kw, *stride, *pad, ow, p0, prows,
                                qgather, pad_code,
                            );
                            let acc = &mut facc[..prows * cout];
                            acc.fill(0.0);
                            lut4_gemm(
                                lut,
                                &qgather[..prows * k],
                                prows,
                                k,
                                qweight_t.as_slice(),
                                *cout,
                                acc,
                                *cout,
                            );
                            match qout {
                                QOut::Codes(params) => {
                                    debug_assert!(!to_out, "code output cannot be the plan output");
                                    let dst_item = item * out_len;
                                    for (pi, arow) in acc.chunks_exact(*cout).enumerate() {
                                        let p = p0 + pi;
                                        for (co, &v) in arow.iter().enumerate() {
                                            let v = v + bias[co];
                                            let v = if *fuse_relu { v.max(0.0) } else { v };
                                            dst[dst_item + co * p_total + p] = params.quantize(v);
                                        }
                                    }
                                }
                                QOut::Float => {
                                    debug_assert!(to_out, "float output is the plan output");
                                    let out_item = item * out_len;
                                    for (pi, arow) in acc.chunks_exact(*cout).enumerate() {
                                        let p = p0 + pi;
                                        for (co, &v) in arow.iter().enumerate() {
                                            let v = v + bias[co];
                                            out[out_item + co * p_total + p] =
                                                if *fuse_relu { v.max(0.0) } else { v };
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                Step::QDense4 {
                    qwt,
                    lut,
                    bias,
                    in_features,
                    out_features,
                    fuse_relu,
                    out: qout,
                } => {
                    // One true multi-row shuffle GEMM over the whole item
                    // group — rows are independent (each owns its
                    // accumulators and its zero-code skip), so grouping is
                    // bit-neutral here too.
                    let outf = *out_features;
                    let acc = &mut facc[..n * outf];
                    acc.fill(0.0);
                    lut4_gemm(
                        lut,
                        &src[..n * in_features],
                        n,
                        *in_features,
                        qwt.as_slice(),
                        outf,
                        acc,
                        outf,
                    );
                    match qout {
                        QOut::Codes(params) => {
                            debug_assert!(!to_out, "code output cannot be the plan output");
                            for i in 0..n {
                                for (j, &b) in bias.iter().enumerate() {
                                    let v = acc[i * outf + j] + b;
                                    let v = if *fuse_relu { v.max(0.0) } else { v };
                                    dst[i * out_len + j] = params.quantize(v);
                                }
                            }
                        }
                        QOut::Float => {
                            debug_assert!(to_out, "float output is the plan output");
                            for i in 0..n {
                                for (j, &b) in bias.iter().enumerate() {
                                    let v = acc[i * outf + j] + b;
                                    out[i * out_len + j] = if *fuse_relu { v.max(0.0) } else { v };
                                }
                            }
                        }
                    }
                }
                Step::QMaxPool { window, stride } => {
                    let (c, h, w) = (shapes.in_shape[0], shapes.in_shape[1], shapes.in_shape[2]);
                    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
                    for item in 0..n {
                        let src_item = &src[item * in_len..(item + 1) * in_len];
                        let dst_item = &mut dst[item * out_len..(item + 1) * out_len];
                        if *window == 2 && *stride == 2 {
                            // The ubiquitous 2×2/2 case as slice max-pairs
                            // (vectorizes to packed u8 max).
                            for ci in 0..c {
                                let plane = &src_item[ci * h * w..(ci + 1) * h * w];
                                for oy in 0..oh {
                                    let r0 = &plane[2 * oy * w..2 * oy * w + 2 * ow];
                                    let r1 = &plane[(2 * oy + 1) * w..(2 * oy + 1) * w + 2 * ow];
                                    let orow = &mut dst_item
                                        [(ci * oh + oy) * ow..(ci * oh + oy) * ow + ow];
                                    for ((o, p0), p1) in orow
                                        .iter_mut()
                                        .zip(r0.chunks_exact(2))
                                        .zip(r1.chunks_exact(2))
                                    {
                                        *o = p0[0].max(p0[1]).max(p1[0]).max(p1[1]);
                                    }
                                }
                            }
                        } else {
                            for ci in 0..c {
                                let plane = &src_item[ci * h * w..(ci + 1) * h * w];
                                for oy in 0..oh {
                                    for ox in 0..ow {
                                        let mut best = 0u8;
                                        for ky in 0..*window {
                                            for kx in 0..*window {
                                                let v = plane
                                                    [(oy * stride + ky) * w + (ox * stride + kx)];
                                                if v > best {
                                                    best = v;
                                                }
                                            }
                                        }
                                        dst_item[(ci * oh + oy) * ow + ox] = best;
                                    }
                                }
                            }
                        }
                    }
                }
                Step::QRelu { zero_point } => {
                    for (o, &v) in dst[..n * out_len].iter_mut().zip(&src[..n * in_len]) {
                        *o = v.max(*zero_point);
                    }
                }
                Step::QDequantize { params } => {
                    debug_assert!(to_out, "decode is always the plan output");
                    params.dequantize_slice(&src[..n * in_len], &mut out[..n * out_len]);
                }
                _ => unreachable!("int8 plans contain only quantized steps"),
            }
            if to_out {
                return;
            }
            src_is_a = !src_is_a;
        }
    }
}

impl std::fmt::Debug for InferencePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferencePlan")
            .field("steps", &self.steps.len())
            .field("multiplier", &self.multiplier.as_ref().map(|m| m.name()).unwrap_or("native"))
            .field("precision", &self.precision)
            .finish()
    }
}

/// Whether a measured int4-vs-int8 calibration gap is acceptable: the max
/// absolute output difference, normalized by the int8 output spread, must
/// stay at or below [`INT4_FALLBACK_GAP`]. A degenerate (empty or constant)
/// int8 output accepts int4 only when the outputs agree exactly.
fn gap_accepts_int4(max_diff: f32, spread: (f32, f32)) -> bool {
    let width = spread.1 - spread.0;
    // A NaN width (NaN calibration outputs) is degenerate too.
    if width <= 0.0 || width.is_nan() {
        return max_diff == 0.0;
    }
    max_diff / width <= INT4_FALLBACK_GAP
}

/// Whether the plan's multiplier and a layer's installed multiplier agree.
///
/// Multipliers are compared by [`Multiplier::name`], the stable identifier
/// the crate documents for cache keys — implementations are deterministic,
/// so same name ⇒ same datapath.
fn same_multiplier(
    plan: &Option<Arc<dyn Multiplier>>,
    layer: &Option<Arc<dyn Multiplier>>,
) -> bool {
    match (plan, layer) {
        (None, None) => true,
        (Some(a), Some(b)) => a.name() == b.name(),
        _ => false,
    }
}

/// Execute one compiled step from `src` into `dst`.
fn exec_step<'k>(
    step: &Step,
    shapes: &ResolvedShape,
    src: &[f32],
    dst: &mut [f32],
    gather: &mut [f32],
    kernel: Option<&mut (dyn BatchKernel + Send + 'k)>,
) {
    match step {
        Step::Conv { weights, bias, cout, cin, kh, kw, stride, pad, fuse_relu } => {
            let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
            let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
            let k = cin * kh * kw;
            let p_total = oh * ow;
            let mut kernel = kernel;
            // One covering row class for every patch tile of this step,
            // derived from the input plane (patch rows only ever contain
            // plane values plus padding zeros): removes all per-tile
            // classification scans from the serving hot path. The scan
            // granularity is the kernel's own (`classify_rhs`).
            let plane_class = kernel.as_ref().map(|kern| {
                let plane = kern.classify_rhs(src);
                if *pad > 0 && plane == RowClass::Normal {
                    RowClass::Zeros
                } else {
                    plane
                }
            });
            for p0 in (0..p_total).step_by(CONV_TILE) {
                let tile = CONV_TILE.min(p_total - p0);
                gather_patches(src, *cin, h, w, *kh, *kw, *stride, *pad, ow, p0, tile, gather);
                for co in 0..*cout {
                    dst[co * p_total + p0..co * p_total + p0 + tile].fill(0.0);
                }
                // Compile stores prepared weights iff the plan has a
                // multiplier, which is also the only case with a kernel.
                match (kernel.as_deref_mut(), weights) {
                    (Some(kern), ConvWeights::Prepared(prep)) => {
                        // Approximate path: the whole weight block sweeps
                        // the shared patch tile in one fused kernel call —
                        // per element `k` ascending, the batched GEMM's
                        // accumulation order.
                        let class = plane_class.expect("kernel implies class");
                        let gb = &gather[..k * tile];
                        kern.gemm_tile_classed(prep, gb, tile, class, &mut dst[p0..], p_total);
                    }
                    (None, ConvWeights::Raw(wmat)) => {
                        let wmat = wmat.as_slice();
                        // Exact path: mirror `da_tensor::ops::matmul`,
                        // including its zero-weight skip.
                        for co in 0..*cout {
                            let acc = &mut dst[co * p_total + p0..co * p_total + p0 + tile];
                            for (ki, &av) in wmat[co * k..(co + 1) * k].iter().enumerate() {
                                if av == 0.0 {
                                    continue;
                                }
                                let g = &gather[ki * tile..(ki + 1) * tile];
                                for (o, &gv) in acc.iter_mut().zip(g) {
                                    *o += av * gv;
                                }
                            }
                        }
                    }
                    _ => unreachable!("conv weight form always matches the kernel mode"),
                }
                for co in 0..*cout {
                    let acc = &mut dst[co * p_total + p0..co * p_total + p0 + tile];
                    let bv = bias[co];
                    for v in acc.iter_mut() {
                        *v += bv;
                    }
                    if *fuse_relu {
                        for v in acc.iter_mut() {
                            *v = v.max(0.0);
                        }
                    }
                }
            }
        }
        Step::Dense { wt, wt_class, bias, in_features, out_features, fuse_relu } => {
            let wt = wt.as_slice();
            let outf = *out_features;
            dst.fill(0.0);
            match kernel {
                Some(kern) => {
                    // The batched GEMM's loop with the activation as the
                    // shared operand (operand order must match
                    // `multiply(x, wᵀ)` — see `gemm_with`). Weight rows were
                    // classified at compile time, so the kernel goes
                    // straight to the class-matched lane sweep.
                    for ki in 0..*in_features {
                        let row = &wt[ki * outf..(ki + 1) * outf];
                        kern.axpy_classified(src[ki], row, wt_class[ki], dst);
                    }
                }
                None => {
                    // Exact path: mirror `matmul(x, wᵀ)` with its
                    // zero-activation skip.
                    for ki in 0..*in_features {
                        let av = src[ki];
                        if av == 0.0 {
                            continue;
                        }
                        for (o, &bv) in dst.iter_mut().zip(&wt[ki * outf..(ki + 1) * outf]) {
                            *o += av * bv;
                        }
                    }
                }
            }
            for (o, &bv) in dst.iter_mut().zip(bias) {
                *o += bv;
            }
            if *fuse_relu {
                for v in dst.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        Step::MaxPool { window, stride } => {
            let (c, h, w) = (shapes.in_shape[0], shapes.in_shape[1], shapes.in_shape[2]);
            let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
            for ci in 0..c {
                let plane = &src[ci * h * w..(ci + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        for ky in 0..*window {
                            for kx in 0..*window {
                                let v = plane[(oy * stride + ky) * w + (ox * stride + kx)];
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        dst[(ci * oh + oy) * ow + ox] = best;
                    }
                }
            }
        }
        Step::Relu => {
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = v.max(0.0);
            }
        }
        Step::BatchNorm { mean, denom, gamma, beta } => {
            let c = gamma.len();
            let plane = if shapes.in_shape.len() == 3 {
                shapes.in_shape[1] * shapes.in_shape[2]
            } else {
                1
            };
            for (i, (o, &v)) in dst.iter_mut().zip(src).enumerate() {
                let ch = (i / plane) % c;
                let h = (v - mean[ch]) / denom[ch];
                *o = gamma[ch] * h + beta[ch];
            }
        }
        Step::QuantAct { bits } => {
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = quantize_k(v.clamp(0.0, 1.0), *bits);
            }
        }
        Step::Flatten => unreachable!("flatten steps are skipped by run_item"),
        Step::QuantizeInput { .. }
        | Step::QConv { .. }
        | Step::QDense { .. }
        | Step::QConv4 { .. }
        | Step::QDense4 { .. }
        | Step::QMaxPool { .. }
        | Step::QRelu { .. }
        | Step::QDequantize { .. } => {
            unreachable!("quantized steps run in run_item_q")
        }
    }
}

/// [`gather_patches`] over activation *codes*: identical tap addressing,
/// with padded taps filled by `pad_code` (the activation quantizer's zero
/// point — the code for exactly `0.0`). Writes output pixels `p0..p0+cols`
/// of one item into columns `col0..col0+cols` of each `row_stride`-wide
/// gather row, so several small items can share one tile.
#[allow(clippy::too_many_arguments)]
fn gather_patches_u8(
    src: &[u8],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ow: usize,
    p0: usize,
    cols: usize,
    row_stride: usize,
    col0: usize,
    gather: &mut [u8],
    pad_code: u8,
) {
    let mut row = 0usize;
    for c in 0..cin {
        let plane = &src[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let out_row = &mut gather[row * row_stride + col0..][..cols];
                let mut idx = 0usize;
                // Track the output pixel incrementally: a div/mod per
                // segment would dominate small-plane gathers.
                let mut oy = p0 / ow;
                let mut ox0 = p0 % ow;
                while idx < cols {
                    let seg = (ow - ox0).min(cols - idx);
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        out_row[idx..idx + seg].fill(pad_code);
                    } else if stride == 1 {
                        // Contiguous taps: pad the out-of-plane flanks,
                        // memcpy the interior (the conv hot case).
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        let ix0 = (ox0 + kx) as isize - pad as isize;
                        let lo = (-ix0).clamp(0, seg as isize) as usize;
                        let hi = (w as isize - ix0).clamp(lo as isize, seg as isize) as usize;
                        out_row[idx..idx + lo].fill(pad_code);
                        let src_seg =
                            &src_row[(ix0 + lo as isize) as usize..(ix0 + hi as isize) as usize];
                        let dst_seg = &mut out_row[idx + lo..idx + hi];
                        if hi - lo <= 32 {
                            // Small planes produce thousands of tiny
                            // segments; a plain loop beats a memcpy call.
                            for (o, &s) in dst_seg.iter_mut().zip(src_seg) {
                                *o = s;
                            }
                        } else {
                            dst_seg.copy_from_slice(src_seg);
                        }
                        out_row[idx + hi..idx + seg].fill(pad_code);
                    } else {
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        for (s, o) in out_row[idx..idx + seg].iter_mut().enumerate() {
                            let ix = ((ox0 + s) * stride + kx) as isize - pad as isize;
                            *o = if ix >= 0 && ix < w as isize {
                                src_row[ix as usize]
                            } else {
                                pad_code
                            };
                        }
                    }
                    idx += seg;
                    ox0 += seg;
                    if ox0 >= ow {
                        ox0 = 0;
                        oy += 1;
                    }
                }
                row += 1;
            }
        }
    }
}

/// [`gather_patches_u8`] **transposed**: one gather row per output *pixel*
/// (`gather[(p - p0)·k + tap]` for pixels `p0..p0+rows`), each holding the
/// pixel's `Cin·Kh·Kw` tap codes in ascending-tap order. This is the left
/// matrix of the int4 shuffle conv, whose GEMM runs pixels-as-rows so the
/// weight codes land on the vectorized axis.
#[allow(clippy::too_many_arguments)]
fn gather_patch_rows_u8(
    src: &[u8],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ow: usize,
    p0: usize,
    rows: usize,
    gather: &mut [u8],
    pad_code: u8,
) {
    let k = cin * kh * kw;
    for s in 0..rows {
        let p = p0 + s;
        let (oy, ox) = (p / ow, p % ow);
        let out_row = &mut gather[s * k..(s + 1) * k];
        let mut tap = 0usize;
        for c in 0..cin {
            let plane = &src[c * h * w..(c + 1) * h * w];
            for ky in 0..kh {
                let iy = (oy * stride + ky) as isize - pad as isize;
                if iy < 0 || iy >= h as isize {
                    out_row[tap..tap + kw].fill(pad_code);
                    tap += kw;
                    continue;
                }
                let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                for kx in 0..kw {
                    let ix = (ox * stride + kx) as isize - pad as isize;
                    out_row[tap] =
                        if ix >= 0 && ix < w as isize { src_row[ix as usize] } else { pad_code };
                    tap += 1;
                }
            }
        }
    }
}

/// Gather the im2col rows for output pixels `p0..p0+tile` into
/// `gather[row·tile..]`, zero-filling padded taps — the on-the-fly
/// replacement for materializing full im2col columns.
#[allow(clippy::too_many_arguments)]
fn gather_patches(
    src: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ow: usize,
    p0: usize,
    tile: usize,
    gather: &mut [f32],
) {
    let mut row = 0usize;
    for c in 0..cin {
        let plane = &src[c * h * w..(c + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let out_row = &mut gather[row * tile..(row + 1) * tile];
                let mut idx = 0usize;
                let mut p = p0;
                while idx < tile {
                    let oy = p / ow;
                    let ox0 = p % ow;
                    let seg = (ow - ox0).min(tile - idx);
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        out_row[idx..idx + seg].fill(0.0);
                    } else {
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        for (s, o) in out_row[idx..idx + seg].iter_mut().enumerate() {
                            let ix = ((ox0 + s) * stride + kx) as isize - pad as isize;
                            *o =
                                if ix >= 0 && ix < w as isize { src_row[ix as usize] } else { 0.0 };
                        }
                    }
                    idx += seg;
                    p += seg;
                }
                row += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu};
    use crate::Mode;
    use da_arith::MultiplierKind;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    fn tiny_cnn(rng: &mut rand::rngs::StdRng) -> Network {
        Network::new("engine-tiny")
            .push(Conv2d::new(1, 3, 3, 1, 1, rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Dropout::new(0.5))
            .push(Flatten)
            .push(Dense::new(3 * 4 * 4, 5, rng))
    }

    #[test]
    fn fusion_drops_noops_and_fuses_relu() {
        let mut rng = rng();
        let net = tiny_cnn(&mut rng);
        let plan = InferencePlan::compile(&net, None).expect("compilable");
        // conv(+relu fused), pool, flatten, dense: dropout dropped, relu fused.
        assert_eq!(plan.depth(), 4);
    }

    #[test]
    fn plan_matches_forward_for_every_kind_and_native() {
        let mut rng = rng();
        let mut net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[3, 1, 8, 8], 1.0, &mut rng);
        for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
            let mult = kind.map(|k| k.build());
            net.set_multiplier(mult.clone());
            let want = net.forward(&x, Mode::Eval).0;
            let plan = InferencePlan::compile(&net, mult).expect("compilable");
            let got = plan.predict_batch(&x);
            assert_eq!(got.shape(), want.shape());
            for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{kind:?} elem {i}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn workspaces_are_reused_across_calls() {
        let mut rng = rng();
        let mut net = tiny_cnn(&mut rng);
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let plan = InferencePlan::compile(&net, net.multiplier().cloned()).unwrap();
        let x = Tensor::randn(&[2, 1, 8, 8], 1.0, &mut rng);
        let _ = plan.predict_batch(&x);
        let after_first = plan.workspace_allocations();
        assert!(after_first > 0, "first call must size the arena");
        for _ in 0..5 {
            let _ = plan.predict_batch(&x);
        }
        assert_eq!(plan.workspace_allocations(), after_first, "steady state must not allocate");
    }

    #[test]
    fn predict_matches_network_predict() {
        let mut rng = rng();
        let net = tiny_cnn(&mut rng);
        let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
        let plan = InferencePlan::compile(&net, None).unwrap();
        assert_eq!(plan.predict(&x), net.predict(&x));
    }

    #[test]
    fn multiplier_mismatch_declines_to_compile() {
        let mut rng = rng();
        let mut net = tiny_cnn(&mut rng);
        // Plan multiplier must agree with the layers' installed multiplier —
        // a mismatched plan would silently diverge from `forward`.
        assert!(InferencePlan::compile(&net, Some(MultiplierKind::AxFpm.build())).is_none());
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        assert!(InferencePlan::compile(&net, None).is_none());
        assert!(InferencePlan::compile(&net, Some(MultiplierKind::Bfloat16.build())).is_none());
        assert!(InferencePlan::compile(&net, Some(MultiplierKind::AxFpm.build())).is_some());
        // A layer carrying its own multiplier (set before push) is caught
        // too: `Network::logits` falls back to the per-layer forward.
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        crate::Layer::set_multiplier(&mut conv, Some(MultiplierKind::AxFpm.build()));
        let net = Network::new("divergent").push(conv);
        assert!(InferencePlan::compile(&net, None).is_none());
        let x = Tensor::rand_uniform(&[1, 1, 6, 6], 0.0, 1.0, &mut rng);
        assert_eq!(net.logits(&x), net.forward(&x, Mode::Eval).0);
    }

    #[test]
    fn uncompilable_layer_yields_none() {
        struct Opaque;
        impl crate::Layer for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn forward(&self, x: &Tensor, _mode: Mode) -> (Tensor, crate::Cache) {
                (x.clone(), crate::Cache::none())
            }
            fn backward(&self, _cache: &crate::Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
                (grad.clone(), Vec::new())
            }
        }
        let net = Network::new("opaque").push(Opaque);
        assert!(InferencePlan::compile(&net, None).is_none());
        // Network::logits still works via the per-layer fallback.
        let x = Tensor::zeros(&[1, 3]);
        assert_eq!(net.logits(&x), x);
    }

    #[test]
    #[should_panic(expected = "input channel mismatch")]
    fn layout_validates_like_forward() {
        let mut rng = rng();
        let net = Network::new("bad").push(Conv2d::new(3, 4, 3, 1, 0, &mut rng));
        let plan = InferencePlan::compile(&net, None).unwrap();
        let _ = plan.predict_batch(&Tensor::zeros(&[1, 2, 8, 8]));
    }
}
