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
//! * every conv/dense layer becomes one `Conv`/`Dense` step whose weights
//!   are held in the form its GEMM consumes — a kernel enum with three
//!   forms: plain `f32` weights (conv weights always, dense weights without
//!   a multiplier), row-classified dense weights for the multiplier's batch
//!   kernel ([`da_arith::classify_row`] once at compile time), and weight
//!   codes over a [`ProductLut`] (int8 codes over a 256×256 table, int4
//!   codes over a 256×16 one). With a multiplier, conv steps run
//!   [`BatchKernel::gemm_tile`] with one row class per input plane, so the
//!   hot path does no per-call row scans;
//! * convolution weights are pre-reshaped to `[Cout, Cin·Kh·Kw]` and dense
//!   weights pre-transposed to `[In, Out]` (no per-call clone + reshape;
//!   dense weights stay the *right* operand, because the reference GEMM
//!   makes the activation the kernel's shared operand and bit-identity
//!   pins that operand order);
//! * convolutions run as **fused conv+bias+ReLU output tiles** that gather
//!   input patches on the fly into a small reused buffer instead of
//!   materializing full im2col columns, and every kernel ends in the same
//!   bias/ReLU epilogue, which writes `f32` values or requantized codes;
//! * one executor runs every precision: each worker takes a group of items
//!   and runs each step over the whole group before the next, ping-ponging
//!   activations (`f32` values or codes) through a reusable workspace
//!   arena, so a steady-state [`InferencePlan::predict_batch`] performs no
//!   heap allocation for intermediates (only the returned logits tensor is
//!   allocated). f32 plans use one-item groups; quantized plans split the
//!   batch evenly across workers so product tables stay hot.
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
//! # Gradients
//!
//! White-box attacks ride the plan too: `Network::input_gradient` and
//! `Network::class_gradient` run the forward through the same executor,
//! keeping every step's `f32` output on a per-item tape, then a reverse
//! sweep over the steps that forms the input gradient and no parameter
//! gradient (conv: `Wᵀ·g` per tap row fused with the `col2im` scatter;
//! dense: `g·W`; ReLU, pooling and the activation quantizer: masks and
//! argmax routes recomputed from the tape). The gradient stays
//! BPDA/straight-through — the forward uses the plan's multiplier, the
//! backward the exact `f32` weights — and is **bit-identical** to the
//! per-layer `forward(Mode::Eval)` + `Network::backward` input gradient
//! (property-tested in `tests/engine_equivalence.rs`). Plans with no
//! gradient form fall back to that per-layer path: batch norm (whose
//! per-layer backward couples the items of a batch), quantized steps, and
//! stacks that do not compile. The per-layer `Layer::backward` stays the
//! training path and the reference.
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
//!   product table collapses to 256×16 entries and the same
//!   [`da_arith::quantized::lut_gemm`] runs it as an in-register shuffle
//!   instead of a hardware gather — several times the int8 gather rate.
//!   The same quantizing compiler as Int8 runs each conv/dense layer's int4
//!   and int8 candidates through the plan executor on the calibration batch
//!   and **falls back to int8 per layer** when the output gap exceeds the
//!   conformance threshold, so a plan is a mixed-precision snapshot
//!   ([`InferencePlan::int4_layer_mix`] reports the split).
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

use da_arith::quantized::{lut_gemm, LutOrder, ProductLut, QuantParams, CODES, CODES4};
use da_arith::storage::Storage;
use da_arith::{classify_row, BatchKernel, ExactMultiplier, Multiplier, RowClass};
use da_tensor::ops::{gemm_acc, ConvGeometry};
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

/// Conv geometry shared by every conv kernel: `cout` filters of
/// `cin × kh × kw` taps, applied at `stride` over `pad`-zero-padded input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConvGeom {
    pub(crate) cout: usize,
    pub(crate) cin: usize,
    pub(crate) kh: usize,
    pub(crate) kw: usize,
    pub(crate) stride: usize,
    pub(crate) pad: usize,
}

impl ConvGeom {
    /// `[cout, cin, kh, kw, stride, pad]`, the snapshot's field order.
    pub(crate) fn dims(&self) -> [usize; 6] {
        [self.cout, self.cin, self.kh, self.kw, self.stride, self.pad]
    }

    pub(crate) fn from_dims(d: [usize; 6]) -> ConvGeom {
        ConvGeom { cout: d[0], cin: d[1], kh: d[2], kw: d[3], stride: d[4], pad: d[5] }
    }

    /// Taps per output pixel (`cin·kh·kw`): the GEMM's reduction length.
    fn taps(&self) -> usize {
        self.cin * self.kh * self.kw
    }
}

/// The weights of a conv/dense step in the form its GEMM consumes — the one
/// place a plan's precision shows up in a step.
///
/// Conv weights are the multiplier's *left* operand (`[Cout, K]` rows),
/// dense weights its *right* operand (`[In, Out]`, pre-transposed): the
/// f32 reference's dense GEMM computes `multiply(x, wᵀ)`, and approximate
/// multipliers need not commute, so every kernel keeps that operand order.
pub(crate) enum Kernel {
    /// Plain `f32` weights: conv weights with or without a multiplier (the
    /// plan's batch kernel, if any, sweeps them through
    /// [`BatchKernel::gemm_tile`]), and dense weights without one (the
    /// native multiply-add loop).
    F32(Storage<f32>),
    /// Dense weights with each row's [`RowClass`], classified once at
    /// compile time so [`BatchKernel::axpy`] skips the per-call row scan.
    Classified { wt: Storage<f32>, class: Vec<RowClass> },
    /// Weight codes looked up in a product table ([`lut_gemm`]): int8
    /// codes over a 256×256 table, in the f32 kernels' layouts; or int4
    /// codes (low nibble) over a 256×16 table, whose columns are the
    /// weights. Dense codes are `[In, Out]` at both widths; int4 conv codes
    /// are transposed to `[K, Cout]`, because the conv runs pixels-as-rows
    /// so the weight codes vary along the shuffle axis.
    Lut { codes: Storage<u8>, lut: Arc<ProductLut>, out: QOut },
}

impl Kernel {
    /// The f32 kernel for dense weights `[In, Out]`: rows classified with
    /// [`classify_row`], the one classification every batch kernel accepts;
    /// raw without a multiplier.
    pub(crate) fn dense(
        multiplier: &Option<Arc<dyn Multiplier>>,
        wt: Storage<f32>,
        out_features: usize,
    ) -> Kernel {
        match multiplier {
            Some(_) => {
                let class = wt.as_slice().chunks(out_features).map(classify_row).collect();
                Kernel::Classified { class, wt }
            }
            None => Kernel::F32(wt),
        }
    }

    /// The weight values of an f32 kernel, in stored order.
    pub(crate) fn f32_weights(&self) -> &[f32] {
        match self {
            Kernel::F32(w) | Kernel::Classified { wt: w, .. } => w.as_slice(),
            Kernel::Lut { .. } => unreachable!("quantized kernels carry codes, not f32 weights"),
        }
    }

    fn reads_codes(&self) -> bool {
        matches!(self, Kernel::Lut { .. })
    }

    /// What the epilogue writes: f32 kernels always emit f32.
    fn out(&self) -> QOut {
        match self {
            Kernel::Lut { out, .. } => *out,
            _ => QOut::Float,
        }
    }
}

/// One executable step of a compiled plan.
///
/// `pub(crate)` (with [`Kernel`]) so `crate::snapshot` can walk a compiled
/// plan when saving and reassemble steps over mapped storage when loading;
/// outside the crate the plan stays opaque.
pub(crate) enum Step {
    /// Fused conv + bias (+ ReLU): patch tiles gathered on the fly, one
    /// GEMM per tile, then the shared epilogue.
    Conv {
        geom: ConvGeom,
        bias: Vec<f32>,
        fuse_relu: bool,
        kernel: Kernel,
    },
    /// Fused dense + bias (+ ReLU).
    Dense {
        in_features: usize,
        out_features: usize,
        bias: Vec<f32>,
        fuse_relu: bool,
        kernel: Kernel,
    },
    /// Max pooling, on f32 values or directly on codes (dequantization is
    /// strictly increasing, so the max code is the code of the max value).
    MaxPool {
        window: usize,
        stride: usize,
    },
    Relu,
    /// ReLU on codes: `max(code, zero_point)` (the zero point dequantizes
    /// to exactly 0.0).
    QRelu {
        zero_point: u8,
    },
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
    /// Quantize the `f32` input into activation codes (always the first
    /// step of a quantized plan).
    QuantizeInput {
        params: QuantParams,
    },
    /// Decode codes back to `f32` (appended when a quantized plan does not
    /// end in a conv/dense step, which emit `f32` logits directly).
    QDequantize {
        params: QuantParams,
    },
}

impl Step {
    /// The operand type the step consumes: codes (`Some(true)`), f32 values
    /// (`Some(false)`), or either (`None`).
    fn reads_codes(&self) -> Option<bool> {
        match self {
            Step::Conv { kernel, .. } | Step::Dense { kernel, .. } => Some(kernel.reads_codes()),
            Step::MaxPool { .. } | Step::Flatten => None,
            Step::QRelu { .. } | Step::QDequantize { .. } => Some(true),
            Step::Relu | Step::BatchNorm { .. } | Step::QuantAct { .. } => Some(false),
            Step::QuantizeInput { .. } => Some(false),
        }
    }

    /// Whether the step writes codes, given whether its input is codes.
    fn writes_codes(&self, codes_in: bool) -> bool {
        match self {
            Step::Conv { kernel, .. } | Step::Dense { kernel, .. } => {
                matches!(kernel.out(), QOut::Codes(_))
            }
            Step::MaxPool { .. } | Step::Flatten => codes_in,
            Step::QRelu { .. } | Step::QuantizeInput { .. } => true,
            Step::Relu | Step::BatchNorm { .. } | Step::QuantAct { .. } => false,
            Step::QDequantize { .. } => false,
        }
    }

    /// This conv/dense step's geometry and bias around another kernel.
    fn with_kernel(&self, kernel: Kernel, fuse_relu: bool) -> Step {
        match self {
            Step::Conv { geom, bias, .. } => {
                Step::Conv { geom: *geom, bias: bias.clone(), fuse_relu, kernel }
            }
            Step::Dense { in_features, out_features, bias, .. } => Step::Dense {
                in_features: *in_features,
                out_features: *out_features,
                bias: bias.clone(),
                fuse_relu,
                kernel,
            },
            _ => unreachable!("only conv/dense steps carry kernels"),
        }
    }
}

/// Whether every step receives the operand type it consumes, from the f32
/// input to f32 logits — the executor's precondition. Compiled plans meet it
/// by construction; snapshot load checks it.
pub(crate) fn operand_types_agree(steps: &[Step]) -> bool {
    let mut codes = false;
    for step in steps {
        if step.reads_codes().is_some_and(|c| c != codes) {
            return false;
        }
        codes = step.writes_codes(codes);
    }
    !codes
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
    /// conv/dense layers run [`da_arith::quantized::lut_gemm`] over a 256×16
    /// table (in-register shuffles), falling back per layer to a 256×256
    /// table (hardware gathers) when the measured accuracy gap is too large
    /// ([`InferencePlan::compile_quantized_int4`]).
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

/// Compile-time product-table cache: one [`ProductLut`] per *distinct*
/// (row quantizer, column quantizer, operand order) key instead of one per
/// layer — layers whose operand ranges coincide (common after ReLU chains
/// with shared weight scales) share a single `Arc` allocation. Keys are
/// ordered, so int8 conv tables (weights as rows) never falsely alias dense
/// tables (activations as rows) even when the parameter values match, and
/// the quantizers' code counts keep int4 and int8 tables apart.
#[derive(Default)]
struct LutCache(Vec<((QuantParams, QuantParams, LutOrder), Arc<ProductLut>)>);

impl LutCache {
    fn get(
        &mut self,
        m: &dyn Multiplier,
        a: QuantParams,
        b: QuantParams,
        order: LutOrder,
    ) -> Arc<ProductLut> {
        let key = (a, b, order);
        if let Some((_, lut)) = self.0.iter().find(|(k, _)| *k == key) {
            return lut.clone();
        }
        let lut = Arc::new(ProductLut::build_ordered(m, a, b, order));
        self.0.push((key, lut.clone()));
        lut
    }
}

/// Per-step shapes resolved for one input item shape.
struct ResolvedShape {
    in_shape: Vec<usize>,
    out_shape: Vec<usize>,
}

impl ResolvedShape {
    fn in_len(&self) -> usize {
        self.in_shape.iter().product()
    }

    fn out_len(&self) -> usize {
        self.out_shape.iter().product()
    }
}

/// Scratch lengths a step needs beyond its input and output buffers.
#[derive(Default, Clone, Copy)]
struct ScratchLen {
    /// `f32` patch gather (f32 convs).
    gather: usize,
    /// Code patch gather (quantized convs).
    qgather: usize,
    /// GEMM accumulator tile, independent of the item group (conv tiles
    /// are capped at [`CONV_TILE`] / [`QCONV_TILE`] columns).
    facc: usize,
    /// Accumulator per group item (dense layers hold the whole group).
    facc_per_item: usize,
}

impl ScratchLen {
    /// The scratch `step` needs for its resolved `shapes`.
    fn of(step: &Step, shapes: &ResolvedShape) -> ScratchLen {
        match step {
            Step::Conv { geom, kernel, .. } => {
                let k = geom.taps();
                let p_total = shapes.out_shape[1] * shapes.out_shape[2];
                let (gather, qgather, tile) = match kernel {
                    Kernel::Lut { lut, .. } if lut.columns() == CODES => {
                        // Small planes share one tile across an item group;
                        // large planes split into balanced tiles. Either way
                        // columns stay under the QCONV_TILE cap.
                        let tile = if p_total >= QCONV_TILE {
                            qconv_tile_width(p_total)
                        } else {
                            (QCONV_TILE / p_total) * p_total
                        };
                        (0, k * tile, tile)
                    }
                    // Transposed tiling: pixel rows × tap columns, with the
                    // accumulator `cout` wide per pixel row.
                    Kernel::Lut { .. } => {
                        let rows = QCONV_TILE.min(p_total).max(1);
                        (0, rows * k, rows)
                    }
                    _ => {
                        let tile = CONV_TILE.min(p_total);
                        (k * tile, 0, tile)
                    }
                };
                ScratchLen { gather, qgather, facc: geom.cout * tile, facc_per_item: 0 }
            }
            Step::Dense { out_features, .. } => {
                ScratchLen { facc_per_item: *out_features, ..ScratchLen::default() }
            }
            _ => ScratchLen::default(),
        }
    }

    fn max(self, o: ScratchLen) -> ScratchLen {
        ScratchLen {
            gather: self.gather.max(o.gather),
            qgather: self.qgather.max(o.qgather),
            facc: self.facc.max(o.facc),
            facc_per_item: self.facc_per_item.max(o.facc_per_item),
        }
    }
}

/// Shape inference result for one per-item input shape: per-step shapes and
/// workspace sizing. Computed on the first `predict_batch` call and cached.
pub(crate) struct Layout {
    item_shape: Vec<usize>,
    resolved: Vec<ResolvedShape>,
    out_shape: Vec<usize>,
    out_len: usize,
    /// Max intermediate `f32` / code length **per item** (the ping-pong
    /// buffers scale with the worker's item group; the final step writes
    /// the caller's output directly).
    f_len: usize,
    q_len: usize,
    scratch: ScratchLen,
    /// Multiply-accumulates per item (parallelization heuristic).
    item_macs: usize,
    /// Where each step's output sits in an item's gradient tape: `None` is
    /// the item's input (leading shape-only steps), and a `Flatten` shares
    /// its input's slot.
    tape_at: Vec<Option<usize>>,
    /// Gradient tape length per item: every writing step's `f32` output,
    /// in step order.
    tape_len: usize,
    /// Longest step input or output per item (the reverse sweep's gradient
    /// buffers) and longest conv column block (taps × output plane).
    grad_len: usize,
    cols_len: usize,
}

/// `Err(what)` unless `ok`: shape inference's non-panicking assert.
fn require(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// `Err` naming both values unless `got == want`.
fn require_eq(got: usize, want: usize, what: &str) -> Result<(), String> {
    require(got == want, &format!("{what}: {got} vs {want}"))
}

/// [`ConvGeometry::output`] for a `[C, H, W]` input, returning its panic
/// conditions (zero stride, a window larger than the padded input) as
/// `Err` instead. A snapshot's geometry is data, so it is checked here
/// before the panicking call.
fn window_output(
    in_shape: &[usize],
    kernel: (usize, usize),
    stride: usize,
    pad: usize,
) -> Result<(usize, usize), String> {
    let input = (in_shape[1], in_shape[2]);
    require(stride > 0, "stride must be positive")?;
    let fits = |x: usize, k: usize| {
        pad.checked_mul(2).and_then(|p| x.checked_add(p)).is_some_and(|padded| padded >= k)
    };
    require(
        fits(input.0, kernel.0) && fits(input.1, kernel.1),
        &format!("kernel {kernel:?} larger than padded input {input:?}+{pad}"),
    )?;
    Ok(ConvGeometry { input, kernel, stride, pad }.output())
}

/// Grow `buf` to `want` elements, counting the growth.
fn grow<T: Copy + Default>(buf: &mut Vec<T>, want: usize, counter: &AtomicU64) {
    if buf.len() < want {
        buf.resize(want, T::default());
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One ping-pong activation buffer: `f32` values or codes, whichever the
/// step that writes it produces.
#[derive(Default)]
struct Buf {
    f: Vec<f32>,
    q: Vec<u8>,
}

/// Per-step scratch: conv patch gathers and the GEMM accumulator tile.
#[derive(Default)]
struct Scratch {
    gather: Vec<f32>,
    qgather: Vec<u8>,
    facc: Vec<f32>,
}

impl Scratch {
    fn ensure(&mut self, len: ScratchLen, group: usize, counter: &AtomicU64) {
        grow(&mut self.gather, len.gather, counter);
        grow(&mut self.qgather, len.qgather, counter);
        grow(&mut self.facc, len.facc.max(group * len.facc_per_item), counter);
    }
}

/// The reverse sweep's per-item buffers: the gradient with respect to the
/// current step's output (`dy`) and input (`dx`), and a conv step's
/// `[taps, OH·OW]` column gradient.
#[derive(Default)]
struct GradBufs {
    dy: Vec<f32>,
    dx: Vec<f32>,
    cols: Vec<f32>,
}

/// Reusable per-worker buffers: two ping-pong activation buffers, the step
/// scratch, and (once the plan has taken a gradient) the forward tape and
/// the reverse sweep's buffers.
#[derive(Default)]
struct Workspace {
    bufs: [Buf; 2],
    scratch: Scratch,
    tape: Vec<f32>,
    grad: GradBufs,
}

impl Workspace {
    /// Grow buffers to the layout's requirements for a worker serving item
    /// groups of up to `group` items, counting growths.
    fn ensure(&mut self, layout: &Layout, group: usize, counter: &AtomicU64) {
        for buf in &mut self.bufs {
            grow(&mut buf.f, group * layout.f_len, counter);
            grow(&mut buf.q, group * layout.q_len, counter);
        }
        self.scratch.ensure(layout.scratch, group, counter);
    }

    /// Grow the tape and reverse-sweep buffers for an `n`-item gradient,
    /// counting growths.
    fn ensure_grad(&mut self, layout: &Layout, n: usize, counter: &AtomicU64) {
        grow(&mut self.tape, n * layout.tape_len, counter);
        grow(&mut self.grad.dy, layout.grad_len, counter);
        grow(&mut self.grad.dx, layout.grad_len, counter);
        grow(&mut self.grad.cols, layout.cols_len, counter);
    }
}

/// A worker's execution state: a workspace checked out of the plan's pool
/// (returned on drop) and a per-worker arithmetic kernel.
struct WorkerState<'p> {
    pool: &'p Mutex<Vec<Workspace>>,
    ws: Workspace,
    arith: Option<Box<dyn BatchKernel + Send + 'p>>,
}

impl Drop for WorkerState<'_> {
    fn drop(&mut self) {
        self.pool.lock().expect("workspace pool lock").push(std::mem::take(&mut self.ws));
    }
}

/// A step's input activations for a whole item group.
#[derive(Clone, Copy)]
enum Acts<'a> {
    F32(&'a [f32]),
    Codes(&'a [u8]),
}

/// A step's output buffer for a whole item group.
enum ActsMut<'a> {
    F32(&'a mut [f32]),
    Codes(&'a mut [u8]),
}

/// A conv/dense step's destination: `f32` values, or codes requantized with
/// the step's output quantizer.
enum Sink<'a> {
    Float(&'a mut [f32]),
    Codes(&'a mut [u8], QuantParams),
}

impl<'a> Sink<'a> {
    fn new(dst: ActsMut<'a>, out: QOut) -> Sink<'a> {
        match (dst, out) {
            (ActsMut::F32(d), QOut::Float) => Sink::Float(d),
            (ActsMut::Codes(d), QOut::Codes(params)) => Sink::Codes(d, params),
            _ => unreachable!("the executor picks the destination from the step's output"),
        }
    }

    /// The bias/ReLU epilogue every conv/dense kernel shares: element `j` of
    /// `acc` becomes `relu?(acc[j] + bias_j)` at `at + j·stride`, stored as
    /// `f32` or requantized into codes with [`QuantParams::quantize`].
    fn store(
        &mut self,
        at: usize,
        stride: usize,
        acc: &[f32],
        bias: impl Iterator<Item = f32>,
        relu: bool,
    ) {
        match self {
            Sink::Float(dst) => scatter(dst, at, stride, acc, bias, relu, |v| v),
            Sink::Codes(dst, params) => {
                let params = *params;
                scatter(dst, at, stride, acc, bias, relu, |v| params.quantize(v));
            }
        }
    }
}

/// [`Sink::store`]'s loop for one output element type.
#[inline(always)]
fn scatter<T>(
    dst: &mut [T],
    at: usize,
    stride: usize,
    acc: &[f32],
    bias: impl Iterator<Item = f32>,
    relu: bool,
    emit: impl Fn(f32) -> T,
) {
    let vals = acc.iter().zip(bias).map(|(&a, b)| {
        let v = a + b;
        emit(if relu { v.max(0.0) } else { v })
    });
    if stride == 1 {
        for (o, v) in dst[at..at + acc.len()].iter_mut().zip(vals) {
            *o = v;
        }
    } else {
        for (o, v) in dst[at..].iter_mut().step_by(stride).zip(vals) {
            *o = v;
        }
    }
}

/// Calibration activations as codes, `[n × item]`, advanced through each
/// step the quantizing compiler has chosen — so every int4-vs-int8 gap is
/// measured on the activations the finished plan really produces.
struct CalCodes {
    n: usize,
    codes: Vec<u8>,
    scratch: Scratch,
}

impl CalCodes {
    /// Run the quantized `step` over the calibration codes into `dst`.
    fn run(&mut self, step: &Step, shapes: &ResolvedShape, dst: ActsMut<'_>) {
        self.scratch.ensure(ScratchLen::of(step, shapes), self.n, &AtomicU64::new(0));
        let src = Acts::Codes(&self.codes);
        exec_step(step, shapes, self.n, src, dst, &mut self.scratch, None);
    }

    /// `step`'s f32 outputs over the calibration codes.
    fn measure(&mut self, step: &Step, shapes: &ResolvedShape) -> Vec<f32> {
        let mut y = vec![0.0f32; self.n * shapes.out_len()];
        self.run(step, shapes, ActsMut::F32(&mut y));
        y
    }

    /// Replace the codes with `step`'s output codes.
    fn advance(&mut self, step: &Step, shapes: &ResolvedShape) {
        let mut next = vec![0u8; self.n * shapes.out_len()];
        self.run(step, shapes, ActsMut::Codes(&mut next));
        self.codes = next;
    }
}

/// Quantize one f32 conv/dense `step` (input codes `act`, output codes
/// `out`): per-tensor int8 weight codes over a 256×256 product table of
/// `m`. With calibration codes, an int4-weight candidate over a 256×16
/// table is measured against the int8 one — both run through the executor,
/// post-bias and pre-activation — and replaces it when the gap passes
/// [`INT4_FALLBACK_GAP`]; the calibration codes then advance through the
/// chosen step.
fn quantize_gemm(
    step: &Step,
    shapes: &ResolvedShape,
    act: QuantParams,
    out: QuantParams,
    m: &dyn Multiplier,
    luts: &mut LutCache,
    cal: Option<&mut CalCodes>,
) -> Step {
    let (kernel, relu, conv) = match step {
        Step::Conv { kernel, fuse_relu, geom, .. } => (kernel, *fuse_relu, Some(geom)),
        Step::Dense { kernel, fuse_relu, .. } => (kernel, *fuse_relu, None),
        _ => unreachable!("only conv/dense steps carry kernels"),
    };
    let w = kernel.f32_weights();
    let (wlo, whi) = QuantParams::observe(w);
    let wq = QuantParams::from_range(wlo, whi);
    // int8 conv tables keep the weights as rows (the f32 operand order);
    // every other table has the activations as rows.
    let lut = match conv {
        Some(_) => luts.get(m, wq, act, LutOrder::RowLeft),
        None => luts.get(m, act, wq, LutOrder::RowLeft),
    };
    let codes = Storage::Owned(w.iter().map(|&v| wq.quantize(v)).collect());
    let Some(cal) = cal else {
        return step.with_kernel(Kernel::Lut { codes, lut, out: QOut::Codes(out) }, relu);
    };
    let int8 = step.with_kernel(Kernel::Lut { codes, lut, out: QOut::Float }, false);

    let w4 = QuantParams::from_range_codes(wlo, whi, CODES4);
    let q4: Vec<u8> = w.iter().map(|&v| w4.quantize(v)).collect();
    let (codes, order) = match conv {
        Some(g) => {
            let (k, cout) = (g.taps(), g.cout);
            let mut t = vec![0u8; k * cout];
            for (co, row) in q4.chunks_exact(k).enumerate() {
                for (kk, &c) in row.iter().enumerate() {
                    t[kk * cout + co] = c;
                }
            }
            (t, LutOrder::ColumnLeft)
        }
        None => (q4, LutOrder::RowLeft),
    };
    let lut = luts.get(m, act, w4, order);
    let int4 = step
        .with_kernel(Kernel::Lut { codes: Storage::Owned(codes), lut, out: QOut::Float }, false);

    let y8 = cal.measure(&int8, shapes);
    let y4 = cal.measure(&int4, shapes);
    let mut spread = (f32::INFINITY, f32::NEG_INFINITY);
    let mut max_diff = 0.0f32;
    for (&a, &b) in y8.iter().zip(&y4) {
        spread = (spread.0.min(a), spread.1.max(a));
        max_diff = max_diff.max((b - a).abs());
    }
    let mut chosen = if gap_accepts_int4(max_diff, spread) { int4 } else { int8 };
    if let Step::Conv { fuse_relu, kernel, .. } | Step::Dense { fuse_relu, kernel, .. } =
        &mut chosen
    {
        *fuse_relu = relu;
        if let Kernel::Lut { out: o, .. } = kernel {
            *o = QOut::Codes(out);
        }
    }
    cal.advance(&chosen, shapes);
    chosen
}

/// A network compiled for serving: pre-reshaped weights, fused conv
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
    /// Assemble a plan from executable steps — the end of every compile path
    /// and of the snapshot-load path (`crate::snapshot`), which
    /// reconstructs steps over mapped storage.
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
                    let s = weight.shape();
                    let geom = ConvGeom { cout: s[0], cin: s[1], kh: s[2], kw: s[3], stride, pad };
                    steps.push(Step::Conv {
                        geom,
                        bias: bias.into_vec(),
                        fuse_relu: false,
                        kernel: Kernel::F32(Storage::Owned(weight.into_vec())),
                    });
                }
                CompiledLayer::Dense { weight, bias, multiplier: layer_mult } => {
                    if !same_multiplier(&multiplier, &layer_mult) {
                        return None;
                    }
                    let (out_features, in_features) = (weight.shape()[0], weight.shape()[1]);
                    let wt = Storage::Owned(transpose2d(&weight).into_vec());
                    steps.push(Step::Dense {
                        in_features,
                        out_features,
                        bias: bias.into_vec(),
                        fuse_relu: false,
                        kernel: Kernel::dense(&multiplier, wt, out_features),
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
        Some(InferencePlan::from_steps(multiplier, steps, PlanPrecision::F32))
    }

    /// Compile `network` into an **int8 serving plan**: weights are
    /// quantized per tensor, activation ranges are calibrated by running
    /// `calibration` (a representative `[N, ...]` sample batch) through the
    /// f32 plan, and every conv/dense step gets int8 weight codes — a
    /// [`da_arith::quantized::lut_gemm`] gather over a per-layer 256×256
    /// [`ProductLut`] built from the *actual* multiplier, gate-level kinds
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
        Self::quantize(network, multiplier, calibration, PlanPrecision::Int8)
    }

    /// Compile `network` into an **int4-weight serving plan**: like
    /// [`InferencePlan::compile_quantized`], but each conv/dense layer's
    /// weights are additionally quantized to **16 codes** over a 256×16
    /// [`ProductLut`], which [`da_arith::quantized::lut_gemm`] runs as an
    /// in-register shuffle — unless the calibration batch measures too large
    /// an output gap against the int8 layer, in which case that layer alone
    /// keeps the int8 gather ([`INT4_FALLBACK_GAP`]; see
    /// [`InferencePlan::int4_layer_mix`] for the resulting split).
    ///
    /// The gap is measured layer-locally on calibration *codes*: both
    /// candidate steps run through the plan executor on the same upstream
    /// activations (produced by the steps actually chosen so far), so the
    /// decision reflects the plan that will really serve. Like the int8
    /// plan, the result is deterministic and schedule-independent; it is
    /// bit-identical to the scalar reference GEMM
    /// (`lut_gemm_reference`) on every layer, int4 and int8 fallback alike.
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
        Self::quantize(network, multiplier, calibration, PlanPrecision::Int4Weights)
    }

    /// The quantizing compiler behind both quantized constructors: int8
    /// kernels everywhere, plus measured int4 candidates for `Int4Weights`.
    fn quantize(
        network: &Network,
        multiplier: Option<Arc<dyn Multiplier>>,
        calibration: &Tensor,
        precision: PlanPrecision,
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
        let layout = f32_plan.layout_for(&calibration.shape()[1..]);
        let lut_mult: Arc<dyn Multiplier> =
            multiplier.clone().unwrap_or_else(|| Arc::new(ExactMultiplier));
        let mut luts = LutCache::default();

        let mut act = QuantParams::from_range(input_range.0, input_range.1);
        let mut cal = (precision == PlanPrecision::Int4Weights).then(|| {
            let n = calibration.shape()[0];
            let mut codes = vec![0u8; calibration.data().len()];
            act.quantize_slice(calibration.data(), &mut codes);
            CalCodes { n, codes, scratch: Scratch::default() }
        });
        let mut steps = vec![Step::QuantizeInput { params: act }];
        for (t, step) in f32_plan.steps.iter().enumerate() {
            let shapes = &layout.resolved[t];
            let q = match step {
                Step::Conv { .. } | Step::Dense { .. } => {
                    let out = QuantParams::from_range(step_ranges[t].0, step_ranges[t].1);
                    let m = &*lut_mult;
                    let q = quantize_gemm(step, shapes, act, out, m, &mut luts, cal.as_mut());
                    act = out;
                    q
                }
                Step::Flatten => Step::Flatten,
                _ => {
                    let q = match step {
                        Step::MaxPool { window, stride } => {
                            Step::MaxPool { window: *window, stride: *stride }
                        }
                        Step::Relu => Step::QRelu { zero_point: act.zero_point() },
                        _ => unreachable!("BatchNorm/QuantAct were declined above"),
                    };
                    if let Some(cal) = cal.as_mut() {
                        cal.advance(&q, shapes);
                    }
                    q
                }
            };
            steps.push(q);
        }
        // The plan's logits are f32: a final conv/dense step emits them
        // directly from its accumulator; anything else gets an explicit
        // decode step.
        match steps.iter_mut().rev().find(|s| !matches!(s, Step::Flatten)) {
            Some(Step::Conv { kernel, .. } | Step::Dense { kernel, .. }) => {
                if let Kernel::Lut { out, .. } = kernel {
                    *out = QOut::Float;
                }
            }
            _ => steps.push(Step::QDequantize { params: act }),
        }
        Some(InferencePlan::from_steps(multiplier, steps, precision))
    }

    /// Run `x` through the f32 steps once, recording the `(min, max)` of the
    /// network input and of every step's output over the whole batch — the
    /// calibration pass behind the quantized constructors.
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
        let WorkerState { ws, arith, .. } = &mut state;
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
                next.clear();
                next.resize(shapes.out_len(), 0.0);
                let (src, dst) = (Acts::F32(&cur), ActsMut::F32(&mut next));
                exec_step(step, shapes, 1, src, dst, &mut ws.scratch, arith.as_deref_mut());
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
                Step::Conv { geom, .. } if input.is_none() => {
                    input = Some(PlanInput::Conv { cin: geom.cin });
                }
                Step::Dense { in_features, out_features, .. } => {
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

    /// The plan's conv/dense kernels, in step order.
    fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        self.steps.iter().filter_map(|s| match s {
            Step::Conv { kernel, .. } | Step::Dense { kernel, .. } => Some(kernel),
            _ => None,
        })
    }

    /// How [`InferencePlan::compile_quantized_int4`] split the GEMM layers:
    /// `(int4 shuffle layers, int8 gather fallback layers)`. Both counts are
    /// zero for f32 plans; the second is the full GEMM count for plain int8
    /// plans.
    pub fn int4_layer_mix(&self) -> (usize, usize) {
        let mut mix = (0, 0);
        for k in self.kernels() {
            if let Kernel::Lut { lut, .. } = k {
                if lut.columns() == CODES4 {
                    mix.0 += 1;
                } else {
                    mix.1 += 1;
                }
            }
        }
        mix
    }

    /// Product-table sharing across the plan's GEMM steps:
    /// `(LUT-bearing steps, distinct table allocations)`. The second number
    /// drops below the first when layers with identical quantizer pairs
    /// share one `Arc`'d table (see [`InferencePlan::compile_quantized`]).
    pub fn product_lut_sharing(&self) -> (usize, usize) {
        let mut tables: Vec<*const ProductLut> = Vec::new();
        let mut steps = 0usize;
        for k in self.kernels() {
            let Kernel::Lut { lut, .. } = k else { continue };
            let p = Arc::as_ptr(lut);
            steps += 1;
            if !tables.contains(&p) {
                tables.push(p);
            }
        }
        (steps, tables.len())
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

        // Each worker runs every step over a contiguous group of items. f32
        // plans keep one-item groups (per-item buffers stay small);
        // quantized plans split the batch evenly across workers, so product
        // tables stay hot across a group and small conv planes share wide
        // tiles. Per-element accumulation order is group-independent, so
        // logits are bit-identical to single-item runs (conformance-tested).
        let threads = if n > 1 && n * layout.item_macs >= PAR_MIN_MACS {
            std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1)
        } else {
            1
        };
        // `max(1)` is defensive: `Tensor` rejects zero dimensions, so
        // `n == 0` cannot reach here today, but a zero chunk size would
        // panic in the splitter if it ever did.
        let group = match self.precision {
            PlanPrecision::F32 => 1,
            PlanPrecision::Int8 | PlanPrecision::Int4Weights => n.div_ceil(threads).max(1),
        };
        let workers = threads.min(n.div_ceil(group));
        self.reserve_workspaces(&layout, group, workers);
        let run = |state: &mut WorkerState<'_>, gi: usize, piece: &mut [f32]| {
            let items = piece.len() / out_len;
            let xs = &xd[gi * group * item_in..][..items * item_in];
            self.run_group(&layout, state, xs, items, Keep::Logits(piece));
        };
        if workers > 1 {
            par_map_chunks_with(
                &mut out,
                group * out_len,
                || self.worker_state(&layout, group),
                run,
            );
        } else {
            let mut state = self.worker_state(&layout, group);
            for (gi, piece) in out.chunks_mut(group * out_len).enumerate() {
                run(&mut state, gi, piece);
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

    /// Top the workspace pool up to `workers` workspaces sized for
    /// `group`-item groups before dispatch. How many workers
    /// `par_map_chunks_with` really starts depends on whether another thread
    /// holds the process-wide parallel region, so sizing all of them up
    /// front keeps steady-state serving allocation-free whatever schedule
    /// the first call happened to get.
    fn reserve_workspaces(&self, layout: &Layout, group: usize, workers: usize) {
        let mut pool = self.pool.lock().expect("workspace pool lock");
        if pool.len() < workers {
            pool.resize_with(workers, Workspace::default);
        }
        for ws in pool.iter_mut() {
            ws.ensure(layout, group, &self.workspace_allocs);
        }
    }

    /// Check out a workspace sized for `group`-item batches, reusing pooled
    /// buffers, and build the per-worker kernel
    /// (quantized plans gather from their LUTs instead of running batch
    /// kernels, so they skip the kernel).
    fn worker_state(&self, layout: &Layout, group: usize) -> WorkerState<'_> {
        let mut ws = self.pool.lock().expect("workspace pool lock").pop().unwrap_or_default();
        ws.ensure(layout, group, &self.workspace_allocs);
        let arith = match self.precision {
            PlanPrecision::F32 => self.multiplier.as_ref().map(|m| m.batch_kernel()),
            PlanPrecision::Int8 | PlanPrecision::Int4Weights => None,
        };
        WorkerState { pool: &self.pool, ws, arith }
    }

    /// The cached layout for `item_shape`, computing it on first use (or
    /// when the serving shape changes).
    ///
    /// # Panics
    ///
    /// Panics with [`try_layout_for`](InferencePlan::try_layout_for)'s
    /// message when the steps cannot run on `item_shape`.
    fn layout_for(&self, item_shape: &[usize]) -> Arc<Layout> {
        self.try_layout_for(item_shape).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// [`layout_for`](InferencePlan::layout_for) without the panic: `Err`
    /// carries the shape-inference message (the per-layer forward's) when
    /// the steps cannot run on `item_shape`. A computed layout is cached.
    pub(crate) fn try_layout_for(&self, item_shape: &[usize]) -> Result<Arc<Layout>, String> {
        {
            let guard = self.layout.lock().expect("layout lock");
            if let Some(layout) = &*guard {
                if layout.item_shape == item_shape {
                    return Ok(layout.clone());
                }
            }
        }
        let layout = Arc::new(self.compute_layout(item_shape)?);
        *self.layout.lock().expect("layout lock") = Some(layout.clone());
        Ok(layout)
    }

    /// The item shape of the cached layout: the shape this plan last
    /// served, if it has served (or been checked against) one.
    pub(crate) fn served_item_shape(&self) -> Option<Vec<usize>> {
        self.layout.lock().expect("layout lock").as_ref().map(|l| l.item_shape.clone())
    }

    /// Shape inference: walk the steps once for a per-item input shape,
    /// validating like the per-layer forward would and sizing the arena.
    fn compute_layout(&self, item_shape: &[usize]) -> Result<Layout, String> {
        let mut shape = item_shape.to_vec();
        let mut resolved = Vec::with_capacity(self.steps.len());
        let (mut f_len, mut q_len) = (0usize, 0usize);
        let mut scratch = ScratchLen::default();
        let mut item_macs = 0usize;
        let mut codes = false;
        let (mut tape_at, mut at, mut tape_len) = (Vec::new(), None, 0usize);
        let (mut grad_len, mut cols_len) = (item_shape.iter().product::<usize>(), 0usize);
        for (t, step) in self.steps.iter().enumerate() {
            let in_shape = shape.clone();
            let out_shape = match step {
                Step::Conv { geom, .. } => {
                    require(in_shape.len() == 3, "Conv2d expects [N, C, H, W]")?;
                    require_eq(in_shape[0], geom.cin, "input channel mismatch")?;
                    let (oh, ow) =
                        window_output(&in_shape, (geom.kh, geom.kw), geom.stride, geom.pad)?;
                    item_macs += geom.cout * geom.taps() * oh * ow;
                    vec![geom.cout, oh, ow]
                }
                Step::Dense { in_features, out_features, .. } => {
                    require(in_shape.len() == 1, "Dense expects [N, In]")?;
                    require_eq(in_shape[0], *in_features, "feature mismatch")?;
                    item_macs += in_features * out_features;
                    vec![*out_features]
                }
                Step::MaxPool { window, stride } => {
                    require(in_shape.len() == 3, "MaxPool2d expects [N, C, H, W]")?;
                    let (oh, ow) = window_output(&in_shape, (*window, *window), *stride, 0)?;
                    vec![in_shape[0], oh, ow]
                }
                Step::Flatten => vec![in_shape.iter().product()],
                Step::Relu
                | Step::QRelu { .. }
                | Step::QuantAct { .. }
                | Step::QuantizeInput { .. }
                | Step::QDequantize { .. } => in_shape.clone(),
                Step::BatchNorm { gamma, .. } => {
                    require(
                        in_shape.len() == 1 || in_shape.len() == 3,
                        "BatchNorm expects [N, F] or [N, C, H, W]",
                    )?;
                    require_eq(in_shape[0], gamma.len(), "channel mismatch")?;
                    in_shape.clone()
                }
            };
            let shapes = ResolvedShape { in_shape, out_shape };
            scratch = scratch.max(ScratchLen::of(step, &shapes));
            codes = step.writes_codes(codes);
            // Intermediates ping-pong through the workspace; the last
            // writing step lands in the caller's output row.
            if !matches!(step, Step::Flatten) && Some(t) != self.last_write {
                let len = if codes { &mut q_len } else { &mut f_len };
                *len = (*len).max(shapes.out_len());
            }
            if !matches!(step, Step::Flatten) {
                at = Some(tape_len);
                tape_len += shapes.out_len();
            }
            tape_at.push(at);
            grad_len = grad_len.max(shapes.out_len());
            if let Step::Conv { geom, .. } = step {
                cols_len = cols_len.max(geom.taps() * shapes.out_shape[1] * shapes.out_shape[2]);
            }
            shape = shapes.out_shape.clone();
            resolved.push(shapes);
        }
        Ok(Layout {
            item_shape: item_shape.to_vec(),
            resolved,
            out_len: shape.iter().product(),
            out_shape: shape,
            f_len,
            q_len,
            scratch,
            item_macs,
            tape_at,
            tape_len,
            grad_len,
            cols_len,
        })
    }

    /// The plan executor: run every step over a group of `n` items. For
    /// serving, activations (`f32` values or codes, whichever each step
    /// writes) ping-pong through the workspace and the last writing step
    /// lands directly in the logits; for a gradient, every step's output
    /// stays on the item's tape.
    fn run_group(
        &self,
        layout: &Layout,
        state: &mut WorkerState<'_>,
        xs: &[f32],
        n: usize,
        mut keep: Keep<'_>,
    ) {
        let Some(last_write) = self.last_write else {
            // Shape-only plan (or no layers at all): logits are the input,
            // and a tape has no slots.
            if let Keep::Logits(out) = keep {
                out.copy_from_slice(xs);
            }
            return;
        };
        let mut arith = state.arith.as_deref_mut();
        let Workspace { bufs: [b0, b1], scratch, .. } = &mut state.ws;
        // The buffer holding the current activations (`None`: the input).
        let mut cur: Option<usize> = None;
        let mut codes = false;
        for (t, step) in self.steps.iter().enumerate() {
            if matches!(step, Step::Flatten) {
                continue;
            }
            let shapes = &layout.resolved[t];
            let (in_len, out_len) = (n * shapes.in_len(), n * shapes.out_len());
            let (src, dst) = match &mut keep {
                Keep::Tape(tape) => {
                    // One f32 item: read the previous step's slot (which
                    // precedes this step's), write this step's.
                    let (done, rest) =
                        tape.split_at_mut(layout.tape_at[t].expect("writing steps own a slot"));
                    let at = t.checked_sub(1).and_then(|p| layout.tape_at[p]);
                    (Acts::F32(tape_slot(xs, done, at, in_len)), ActsMut::F32(&mut rest[..out_len]))
                }
                Keep::Logits(out) => {
                    let (src, next) = match cur {
                        None => (None, &mut *b0),
                        Some(0) => (Some(&*b0), &mut *b1),
                        Some(_) => (Some(&*b1), &mut *b0),
                    };
                    let src = match src {
                        None => Acts::F32(&xs[..in_len]),
                        Some(b) if codes => Acts::Codes(&b.q[..in_len]),
                        Some(b) => Acts::F32(&b.f[..in_len]),
                    };
                    codes = step.writes_codes(codes);
                    let dst = if t == last_write {
                        ActsMut::F32(&mut out[..out_len])
                    } else if codes {
                        ActsMut::Codes(&mut next.q[..out_len])
                    } else {
                        ActsMut::F32(&mut next.f[..out_len])
                    };
                    cur = Some(if cur == Some(0) { 1 } else { 0 });
                    (src, dst)
                }
            };
            exec_step(step, shapes, n, src, dst, scratch, arith.as_deref_mut());
            if t == last_write {
                return;
            }
        }
    }

    /// Whether the plan has a gradient form: an f32 plan whose every step
    /// has a dX-only reverse rule. Batch norm has none (its per-layer
    /// backward couples the items of a batch), and quantized steps have
    /// none.
    pub(crate) fn differentiable(&self) -> bool {
        self.precision == PlanPrecision::F32
            && self.steps.iter().all(|s| match s {
                Step::Conv { kernel, .. } | Step::Dense { kernel, .. } => !kernel.reads_codes(),
                Step::MaxPool { .. } | Step::Relu | Step::Flatten | Step::QuantAct { .. } => true,
                _ => false,
            })
    }

    /// The input gradient of a `[N, ...]` batch for the logit gradient
    /// `seed(logits)`: a forward pass through the executor that keeps every
    /// step's output on a per-item tape, then the dX-only reverse sweep
    /// ([`InferencePlan::backprop`]). Bit-identical to the per-layer
    /// `forward(Mode::Eval)` + `Network::backward` input gradient for the
    /// same seed, so it is the BPDA/straight-through gradient under an
    /// approximate multiplier. Every item runs inline on one worker:
    /// attacks take gradients one image at a time, where spawning workers
    /// costs more than it saves.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not [`InferencePlan::differentiable`], on the
    /// shape mismatches `predict_batch` rejects, or if `seed` returns a
    /// tensor not shaped like the logits.
    pub(crate) fn input_gradient(
        &self,
        x: &Tensor,
        seed: impl FnOnce(&Tensor) -> Tensor,
    ) -> Tensor {
        assert!(self.differentiable(), "the plan has no gradient form");
        assert!(x.shape().len() >= 2, "input_gradient expects a batched [N, ...] input");
        let n = x.shape()[0];
        let layout = self.layout_for(&x.shape()[1..]);
        let (item_in, out_len, tape_len) = (x.len() / n, layout.out_len, layout.tape_len);
        let item = |i: usize| &x.data()[i * item_in..][..item_in];

        let mut state = self.worker_state(&layout, 1);
        state.ws.ensure_grad(&layout, n, &self.workspace_allocs);
        // The tape leaves the workspace while the executor borrows it.
        let mut tape_buf = std::mem::take(&mut state.ws.tape);
        let tape = &mut tape_buf[..n * tape_len];
        if tape_len > 0 {
            for (i, item_tape) in tape.chunks_mut(tape_len).enumerate() {
                self.run_group(&layout, &mut state, item(i), 1, Keep::Tape(item_tape));
            }
        }
        let tape = &*tape;
        let tape_of = |i: usize| &tape[i * tape_len..][..tape_len];
        let logits_at = layout.tape_at.last().copied().flatten();
        let mut logits = Vec::with_capacity(n * out_len);
        for i in 0..n {
            logits.extend_from_slice(tape_slot(item(i), tape_of(i), logits_at, out_len));
        }
        let mut shape = vec![n];
        shape.extend_from_slice(&layout.out_shape);
        let dlogits = seed(&Tensor::from_vec(logits, &shape));
        assert_eq!(dlogits.shape(), &shape[..], "the logit gradient must match the logits");

        let mut dx = vec![0.0f32; n * item_in];
        let dl = dlogits.data();
        for (i, dxi) in dx.chunks_mut(item_in).enumerate() {
            let seed = &dl[i * out_len..][..out_len];
            self.backprop(&layout, &mut state.ws.grad, item(i), tape_of(i), seed, dxi);
        }
        state.ws.tape = tape_buf;
        Tensor::from_vec(dx, x.shape())
    }

    /// The dX-only reverse sweep for one item: from the logit gradient
    /// `seed` back through every step to the input gradient `dx`, reading
    /// step inputs and outputs from the item's input `x` and forward
    /// `tape`. No parameter gradient is formed. Each rule reproduces the
    /// per-layer `Layer::backward`'s dX bit for bit, with the exact `f32`
    /// weights whatever the forward multiplier (straight-through).
    fn backprop(
        &self,
        layout: &Layout,
        bufs: &mut GradBufs,
        x: &[f32],
        tape: &[f32],
        seed: &[f32],
        dx: &mut [f32],
    ) {
        let GradBufs { dy, dx: din, cols } = bufs;
        dy[..seed.len()].copy_from_slice(seed);
        for (t, step) in self.steps.iter().enumerate().rev() {
            let shapes = &layout.resolved[t];
            let (in_len, out_len) = (shapes.in_len(), shapes.out_len());
            let input_at = t.checked_sub(1).and_then(|p| layout.tape_at[p]);
            let input = tape_slot(x, tape, input_at, in_len);
            let output = tape_slot(x, tape, layout.tape_at[t], out_len);
            let (gy, gx) = (&mut dy[..out_len], &mut din[..in_len]);
            match step {
                Step::Flatten => continue,
                Step::Relu => {
                    relu_mask(gy, output);
                    continue;
                }
                Step::QuantAct { .. } => {
                    // Straight-through inside the clip range.
                    for (g, &v) in gy.iter_mut().zip(input) {
                        if !(0.0..=1.0).contains(&v) {
                            *g = 0.0;
                        }
                    }
                    continue;
                }
                Step::MaxPool { window, stride } => {
                    max_pool_dx(shapes, *window, *stride, input, gy, gx);
                }
                Step::Conv { geom, fuse_relu, kernel, .. } => {
                    if *fuse_relu {
                        relu_mask(gy, output);
                    }
                    let Kernel::F32(w) = kernel else {
                        unreachable!("differentiable conv steps carry f32 weights")
                    };
                    conv_dx(geom, shapes, w.as_slice(), gy, gx, cols);
                }
                Step::Dense { out_features, fuse_relu, kernel, .. } => {
                    if *fuse_relu {
                        relu_mask(gy, output);
                    }
                    let (Kernel::F32(wt) | Kernel::Classified { wt, .. }) = kernel else {
                        unreachable!("differentiable dense steps carry f32 weights")
                    };
                    dense_dx(wt.as_slice(), *out_features, gy, gx);
                }
                _ => unreachable!("only differentiable plans run the reverse sweep"),
            }
            std::mem::swap(dy, din);
        }
        dx.copy_from_slice(&dy[..dx.len()]);
    }
}

/// Where [`InferencePlan::run_group`] keeps step outputs.
enum Keep<'a> {
    /// Serving: intermediates ping-pong through the workspace, and the last
    /// writing step lands in these logits.
    Logits(&'a mut [f32]),
    /// A gradient: one f32 item's tape, every writing step's output in its
    /// slot (`Layout::tape_at`).
    Tape(&'a mut [f32]),
}

/// The `len` values at tape slot `at` (`None`: the item's input `x`).
fn tape_slot<'a>(x: &'a [f32], tape: &'a [f32], at: Option<usize>, len: usize) -> &'a [f32] {
    match at {
        Some(at) => &tape[at..][..len],
        None => &x[..len],
    }
}

/// ReLU's backward from its output: `out > 0` holds exactly when the input
/// was `> 0` (NaN and `±0` inputs give `0` outputs), so this is
/// `Relu::backward`'s mask.
fn relu_mask(g: &mut [f32], out: &[f32]) {
    for (g, &o) in g.iter_mut().zip(out) {
        *g = if o > 0.0 { *g } else { 0.0 };
    }
}

/// Conv input gradient for one item: the column gradient `Wᵀ·g` as one
/// [`gemm_acc`] over the `[Cout, taps]` `weights` read transposed — per
/// element the reference's `matmul(Wᵀ, g)` order (`Cout` ascending, zero
/// weights skipped) — then scattered into `gx` tap row by tap row as
/// `col2im` does, so each input pixel sums its terms in the same order.
fn conv_dx(
    g: &ConvGeom,
    shapes: &ResolvedShape,
    weights: &[f32],
    gy: &[f32],
    gx: &mut [f32],
    cols: &mut [f32],
) {
    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
    let taps = g.taps();
    let cols = &mut cols[..taps * oh * ow];
    cols.fill(0.0);
    gemm_acc(taps, g.cout, oh * ow, weights, (1, taps), gy, cols);
    gx.fill(0.0);
    let mut rows = cols.chunks_exact(oh * ow);
    for plane in gx.chunks_exact_mut(h * w) {
        for ky in 0..g.kh {
            for kx in 0..g.kw {
                let row = rows.next().expect("one column row per tap");
                let ix0 = kx as isize - g.pad as isize;
                for (oy, rrow) in row.chunks_exact(ow).enumerate() {
                    let iy = (oy * g.stride + ky) as isize - g.pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let prow = &mut plane[iy as usize * w..][..w];
                    if g.stride == 1 {
                        // Contiguous taps: the in-plane span of the row.
                        let lo = (-ix0).clamp(0, ow as isize);
                        let hi = (w as isize - ix0).clamp(lo, ow as isize);
                        let dst = &mut prow[(lo + ix0) as usize..(hi + ix0) as usize];
                        for (d, &v) in dst.iter_mut().zip(&rrow[lo as usize..hi as usize]) {
                            *d += v;
                        }
                    } else {
                        for (ox, &v) in rrow.iter().enumerate() {
                            let ix = (ox * g.stride) as isize + ix0;
                            if ix >= 0 && ix < w as isize {
                                prow[ix as usize] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Dense input gradient `g·W` over `[In, Out]` weights `wt`: per input
/// feature, `o` ascending with `g == 0` terms skipped — `matmul(g, W)`'s
/// per-element order.
fn dense_dx(wt: &[f32], out_features: usize, gy: &[f32], gx: &mut [f32]) {
    // Eight features at a time: independent accumulator chains.
    const BLOCK: usize = 8;
    for (xs, rows) in gx.chunks_mut(BLOCK).zip(wt.chunks(BLOCK * out_features)) {
        let mut acc = [0.0f32; BLOCK];
        for (o, &gv) in gy.iter().enumerate() {
            if gv == 0.0 {
                continue;
            }
            for (a, wrow) in acc.iter_mut().zip(rows.chunks_exact(out_features)) {
                *a += gv * wrow[o];
            }
        }
        xs.copy_from_slice(&acc[..xs.len()]);
    }
}

/// Max-pool input gradient for one item: each output's gradient lands on its
/// window's first strict maximum, recomputed from the step input —
/// `MaxPool2d`'s rule, under which a window with no value above `-inf`
/// routes to its first tap.
fn max_pool_dx(
    shapes: &ResolvedShape,
    window: usize,
    stride: usize,
    input: &[f32],
    gy: &[f32],
    gx: &mut [f32],
) {
    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
    gx.fill(0.0);
    let planes = input.chunks_exact(h * w).zip(gy.chunks_exact(oh * ow));
    for ((plane, gplane), dplane) in planes.zip(gx.chunks_exact_mut(h * w)) {
        for (o, &gv) in gplane.iter().enumerate() {
            let first = (o / ow) * stride * w + (o % ow) * stride;
            let (mut best, mut at) = (f32::NEG_INFINITY, first);
            for ky in 0..window {
                for i in first + ky * w..first + ky * w + window {
                    if plane[i] > best {
                        best = plane[i];
                        at = i;
                    }
                }
            }
            dplane[at] += gv;
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

/// Run one step over a group of `n` items from `src` into `dst` — every
/// precision's step executor.
fn exec_step(
    step: &Step,
    shapes: &ResolvedShape,
    n: usize,
    src: Acts<'_>,
    dst: ActsMut<'_>,
    scratch: &mut Scratch,
    arith: Option<&mut (dyn BatchKernel + Send + '_)>,
) {
    match (step, src, dst) {
        (Step::Conv { geom, bias, fuse_relu, kernel }, src, dst) => {
            conv(geom, bias, *fuse_relu, kernel, shapes, n, src, dst, scratch, arith);
        }
        (Step::Dense { in_features, out_features, bias, fuse_relu, kernel }, src, dst) => {
            let out = kernel.out();
            let (inf, outf) = (*in_features, *out_features);
            let acc = &mut scratch.facc[..n * outf];
            acc.fill(0.0);
            match (kernel, src) {
                (Kernel::F32(wt), Acts::F32(x)) => {
                    // Exact path: `gemm_acc`, the kernel under
                    // `matmul(x, wᵀ)`, zero-activation skip included.
                    gemm_acc(n, inf, outf, x, (inf, 1), wt.as_slice(), acc);
                }
                (Kernel::Classified { wt, class }, Acts::F32(x)) => {
                    // The batched GEMM's loop with the activation as the
                    // shared operand (operand order must match
                    // `multiply(x, wᵀ)` — see `gemm_with`).
                    let a = arith.expect("classified weights imply a batch kernel");
                    for (xi, ai) in x.chunks_exact(inf).zip(acc.chunks_exact_mut(outf)) {
                        let rows = xi.iter().zip(wt.as_slice().chunks_exact(outf)).zip(class);
                        for ((&av, wrow), &c) in rows {
                            a.axpy(av, wrow, c, ai);
                        }
                    }
                }
                (Kernel::Lut { codes, lut, .. }, Acts::Codes(x)) => {
                    // Per-item single-row GEMMs at both widths (activations
                    // are the table rows): the single-row path skips
                    // zero-point activation codes (ubiquitous after ReLU),
                    // which beats a multi-row sweep — the weight-code
                    // matrix stays hot across the item group either way.
                    for (xi, ai) in x.chunks_exact(inf).zip(acc.chunks_exact_mut(outf)) {
                        lut_gemm(lut, xi, 1, inf, codes.as_slice(), outf, ai, outf);
                    }
                }
                _ => unreachable!("dense operands agree with the kernel"),
            }
            let mut sink = Sink::new(dst, out);
            for (i, row) in acc.chunks_exact(outf).enumerate() {
                sink.store(i * outf, 1, row, bias.iter().copied(), *fuse_relu);
            }
        }
        (Step::MaxPool { window, stride }, Acts::F32(s), ActsMut::F32(d)) => {
            max_pool(shapes, *window, *stride, s, d, f32::NEG_INFINITY);
        }
        (Step::MaxPool { window, stride }, Acts::Codes(s), ActsMut::Codes(d)) => {
            max_pool(shapes, *window, *stride, s, d, 0);
        }
        (Step::Relu, Acts::F32(s), ActsMut::F32(d)) => {
            for (o, &v) in d.iter_mut().zip(s) {
                *o = v.max(0.0);
            }
        }
        (Step::QRelu { zero_point }, Acts::Codes(s), ActsMut::Codes(d)) => {
            for (o, &v) in d.iter_mut().zip(s) {
                *o = v.max(*zero_point);
            }
        }
        (Step::BatchNorm { mean, denom, gamma, beta }, Acts::F32(s), ActsMut::F32(d)) => {
            let c = gamma.len();
            let plane = if shapes.in_shape.len() == 3 {
                shapes.in_shape[1] * shapes.in_shape[2]
            } else {
                1
            };
            for (i, (o, &v)) in d.iter_mut().zip(s).enumerate() {
                let ch = (i / plane) % c;
                let h = (v - mean[ch]) / denom[ch];
                *o = gamma[ch] * h + beta[ch];
            }
        }
        (Step::QuantAct { bits }, Acts::F32(s), ActsMut::F32(d)) => {
            for (o, &v) in d.iter_mut().zip(s) {
                *o = quantize_k(v.clamp(0.0, 1.0), *bits);
            }
        }
        (Step::QuantizeInput { params }, Acts::F32(s), ActsMut::Codes(d)) => {
            params.quantize_slice(s, d);
        }
        (Step::QDequantize { params }, Acts::Codes(s), ActsMut::F32(d)) => {
            params.dequantize_slice(s, d);
        }
        _ => unreachable!("operand types agree (by construction, and checked at snapshot load)"),
    }
}

/// The conv step over `n` items: per tile, gather input patches, run the
/// kernel's GEMM into the accumulator tile, then the shared epilogue.
#[allow(clippy::too_many_arguments)]
fn conv(
    g: &ConvGeom,
    bias: &[f32],
    relu: bool,
    kernel: &Kernel,
    shapes: &ResolvedShape,
    n: usize,
    src: Acts<'_>,
    dst: ActsMut<'_>,
    ws: &mut Scratch,
    mut arith: Option<&mut (dyn BatchKernel + Send + '_)>,
) {
    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
    let ow = shapes.out_shape[2];
    let (k, p_total) = (g.taps(), shapes.out_shape[1] * ow);
    let (in_len, out_len) = (g.cin * h * w, g.cout * p_total);
    let mut sink = Sink::new(dst, kernel.out());
    match (kernel, src) {
        (Kernel::F32(wmat), Acts::F32(src)) => {
            let wmat = wmat.as_slice();
            for (item, x) in src.chunks_exact(in_len).enumerate() {
                // One covering row class for every patch tile of this item,
                // derived from the input plane (patch rows only ever contain
                // plane values plus padding zeros): removes all per-tile
                // classification scans from the serving hot path.
                let plane_class = arith.is_some().then(|| match classify_row(x) {
                    RowClass::Normal if g.pad > 0 => RowClass::Zeros,
                    class => class,
                });
                for p0 in (0..p_total).step_by(CONV_TILE) {
                    let tile = CONV_TILE.min(p_total - p0);
                    gather_patches(x, g, h, w, ow, p0, tile, tile, 0, &mut ws.gather, 0.0);
                    let gb = &ws.gather[..k * tile];
                    let acc = &mut ws.facc[..g.cout * tile];
                    acc.fill(0.0);
                    if let (Some(a), Some(class)) = (arith.as_deref_mut(), plane_class) {
                        // Approximate path: the whole weight block sweeps
                        // the shared patch tile in one fused kernel call —
                        // per element `k` ascending, the batched GEMM's
                        // accumulation order.
                        a.gemm_tile(wmat, gb, tile, class, acc, tile);
                    } else {
                        // Exact path: `gemm_acc`, the kernel under
                        // `matmul(wmat, cols)`, zero-weight skip included.
                        gemm_acc(g.cout, k, tile, wmat, (k, 1), gb, acc);
                    }
                    for (co, row) in acc.chunks_exact(tile).enumerate() {
                        let at = item * out_len + co * p_total + p0;
                        sink.store(at, 1, row, std::iter::repeat(bias[co]), relu);
                    }
                }
            }
        }
        (Kernel::Lut { codes, lut, .. }, Acts::Codes(src)) if lut.columns() == CODES => {
            // Weights-as-rows: padded taps gather the activation (column)
            // zero point — the code for exactly 0.0, matching the f32
            // path's zeros.
            let pad_code = lut.b_params().zero_point();
            // Small output planes pack several items into one tile so the
            // gather kernels amortize table traffic.
            let per_tile = if p_total >= QCONV_TILE { 1 } else { QCONV_TILE / p_total };
            let tile_width = qconv_tile_width(p_total);
            let mut i0 = 0usize;
            while i0 < n {
                let items = per_tile.min(n - i0);
                for p0 in (0..p_total).step_by(tile_width) {
                    let cols = tile_width.min(p_total - p0);
                    let tile = if items == 1 { cols } else { items * p_total };
                    for li in 0..items {
                        let x = &src[(i0 + li) * in_len..][..in_len];
                        let (gather, col0) = (&mut ws.qgather, li * p_total);
                        gather_patches(x, g, h, w, ow, p0, cols, tile, col0, gather, pad_code);
                    }
                    let acc = &mut ws.facc[..g.cout * tile];
                    acc.fill(0.0);
                    let gb = &ws.qgather[..k * tile];
                    lut_gemm(lut, codes.as_slice(), g.cout, k, gb, tile, acc, tile);
                    for li in 0..items {
                        for (co, row) in acc.chunks_exact(tile).enumerate() {
                            let at = (i0 + li) * out_len + co * p_total + p0;
                            let row = &row[li * p_total..][..cols];
                            sink.store(at, 1, row, std::iter::repeat(bias[co]), relu);
                        }
                    }
                }
                i0 += items;
            }
        }
        (Kernel::Lut { codes, lut, .. }, Acts::Codes(src)) => {
            // An int4 table has the activations as rows: pixel rows × tap
            // columns against `[k, Cout]` weight codes, so the 4-bit codes
            // vary along the shuffle axis, and padded taps gather the row
            // zero point. Per output element accumulation is the same
            // ascending-`k` order as the int8 path, and the tiling is per
            // item, so grouping cannot change bits.
            let pad_code = lut.a_params().zero_point();
            for (item, x) in src.chunks_exact(in_len).enumerate() {
                for p0 in (0..p_total).step_by(QCONV_TILE) {
                    let rows = QCONV_TILE.min(p_total - p0);
                    gather_patch_rows_u8(x, g, h, w, ow, p0, rows, &mut ws.qgather, pad_code);
                    let acc = &mut ws.facc[..rows * g.cout];
                    acc.fill(0.0);
                    let gb = &ws.qgather[..rows * k];
                    lut_gemm(lut, gb, rows, k, codes.as_slice(), g.cout, acc, g.cout);
                    for (pi, row) in acc.chunks_exact(g.cout).enumerate() {
                        let at = item * out_len + p0 + pi;
                        sink.store(at, p_total, row, bias.iter().copied(), relu);
                    }
                }
            }
        }
        _ => unreachable!("conv operands agree with the kernel"),
    }
}

/// Max pooling over `[C, H, W]` items, on `f32` values or on codes. Each
/// window starts at `floor` (`-inf`, or code 0) and takes a value only when
/// it is strictly greater — the reference's first-maximum, NaN-skipping
/// order.
fn max_pool<T: Copy + PartialOrd>(
    shapes: &ResolvedShape,
    window: usize,
    stride: usize,
    src: &[T],
    dst: &mut [T],
    floor: T,
) {
    let (h, w) = (shapes.in_shape[1], shapes.in_shape[2]);
    let (oh, ow) = (shapes.out_shape[1], shapes.out_shape[2]);
    let max = |m: T, v: T| if v > m { v } else { m };
    for (plane, out) in src.chunks_exact(h * w).zip(dst.chunks_exact_mut(oh * ow)) {
        for (oy, orow) in out.chunks_exact_mut(ow).enumerate() {
            if window == 2 && stride == 2 {
                // The ubiquitous 2×2/2 case as slice max-pairs (vectorizes
                // to packed max on codes).
                let r0 = &plane[2 * oy * w..][..2 * ow];
                let r1 = &plane[(2 * oy + 1) * w..][..2 * ow];
                for ((o, a), b) in orow.iter_mut().zip(r0.chunks_exact(2)).zip(r1.chunks_exact(2)) {
                    *o = max(max(max(max(floor, a[0]), a[1]), b[0]), b[1]);
                }
            } else {
                for (ox, o) in orow.iter_mut().enumerate() {
                    let mut best = floor;
                    for ky in 0..window {
                        let row = &plane[(oy * stride + ky) * w + ox * stride..];
                        for &v in &row[..window] {
                            best = max(best, v);
                        }
                    }
                    *o = best;
                }
            }
        }
    }
}

/// Gather the im2col rows for output pixels `p0..p0+cols` of one item —
/// `f32` values or activation codes — into columns `col0..col0+cols` of
/// each `row_stride`-wide gather row (so several small items can share one
/// tile), filling padded taps with `pad_code` (`0.0`, or the activation
/// quantizer's zero point: the code for exactly `0.0`). The on-the-fly
/// replacement for materializing full im2col columns.
#[allow(clippy::too_many_arguments)]
fn gather_patches<T: Copy>(
    src: &[T],
    g: &ConvGeom,
    h: usize,
    w: usize,
    ow: usize,
    p0: usize,
    cols: usize,
    row_stride: usize,
    col0: usize,
    gather: &mut [T],
    pad_code: T,
) {
    let ConvGeom { cin, kh, kw, stride, pad, .. } = *g;
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

/// [`gather_patches`] over codes, **transposed**: one gather row per output
/// *pixel* (`gather[(p - p0)·k + tap]` for pixels `p0..p0+rows`), each holding the
/// pixel's `Cin·Kh·Kw` tap codes in ascending-tap order. This is the left
/// matrix of the int4 shuffle conv, whose GEMM runs pixels-as-rows so the
/// weight codes land on the vectorized axis.
#[allow(clippy::too_many_arguments)]
fn gather_patch_rows_u8(
    src: &[u8],
    g: &ConvGeom,
    h: usize,
    w: usize,
    ow: usize,
    p0: usize,
    rows: usize,
    gather: &mut [u8],
    pad_code: u8,
) {
    let ConvGeom { cin, kh, kw, stride, pad, .. } = *g;
    let k = g.taps();
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
