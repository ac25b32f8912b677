//! CNN substrate with pluggable (approximate) multipliers.
//!
//! This crate provides everything the paper's experiments need from a deep
//! learning framework, hand-rolled for an ecosystem without one:
//!
//! * [`layers`] — Conv2d and Dense (both with a pluggable
//!   [`da_arith::Multiplier`] for their forward inner products), MaxPool2d,
//!   ReLU, Flatten, Dropout, BatchNorm, and the DoReFa activation quantizer.
//! * [`network`] — a sequential [`Network`] with full backpropagation, the
//!   classifier API the attack suite targets, and multiplier swapping
//!   (`set_multiplier` *is* the Defensive Approximation deployment step: no
//!   retraining, the weights stay put).
//! * [`loss`] — softmax cross-entropy.
//! * [`optim`] — SGD (with momentum) and Adam.
//! * [`train`] — a deterministic mini-batch training loop.
//! * [`quant`] — DoReFa-style k-bit quantization for the Defensive
//!   Quantization baseline (paper §7.1).
//! * [`zoo`] — the paper's architectures: LeNet-5, the CIFAR-scale AlexNet,
//!   and the quantized ConvNet of Appendix B.
//! * [`io`] — self-contained binary weight serialization.
//!
//! ## Gradient semantics under approximation
//!
//! Forward passes honor the configured multiplier; backward passes always use
//! exact arithmetic over the stored (possibly approximate) activations. This
//! is the straight-through/BPDA estimator — exactly the "approximate
//! gradients" a white-box attacker of the paper's §5.3 has access to, since
//! the gate-level netlist has no useful analytic derivative. Attack-side
//! input gradients ([`Network::input_gradient`], [`Network::class_gradient`])
//! run on the compiled plan with the same semantics, bit for bit (see
//! [`engine`]).
//!
//! ## Arithmetic backend
//!
//! Every approximate inner product runs on the **batched arithmetic
//! backend** rather than one virtual call per MAC:
//!
//! * [`layers::gemm_with`] is a blocked, cache-tiled GEMM, generic over the
//!   multiplier. It distributes output rows over the scoped thread pool
//!   (`da_tensor::parallel`) and gives each worker its own
//!   [`da_arith::BatchKernel`], fed one row class per B tile computed once
//!   per GEMM; gate-level cores run on the bit-sliced plane sweep (see
//!   `da_arith::batch`). Layers call it with their `dyn Multiplier`, which
//!   is resolved once per row-slice, never per element; with
//!   [`da_arith::ExactMultiplier`] the monomorphized inner loop compiles
//!   to the native multiply-add loop.
//! * [`layers::matmul_with_scalar`] keeps the historical per-scalar loop as
//!   the semantic reference: the batched GEMM is property-tested
//!   (`tests/gemm_equivalence.rs`) to match it bit-for-bit for every
//!   [`da_arith::MultiplierKind`], including NaN/Inf/denormal/negative-zero
//!   inputs.
//!
//! `Conv2d` and `Dense` forwards route through this backend; batch items of
//! a convolution still parallelize at the item level, and the nested GEMM
//! then runs inline (the thread pool suppresses nested parallelism).
//!
//! ## Serving engine
//!
//! Evaluation-mode inference additionally runs on **compiled plans**
//! ([`engine::InferencePlan`]): the layer stack is walked once, weights are
//! pre-reshaped/pre-transposed (dense rows classified once with
//! [`da_arith::classify_row`]), convolutions execute as fused
//! conv+bias+ReLU tiles through [`da_arith::BatchKernel::gemm_tile`]
//! without materializing im2col columns, and intermediates live in a
//! reusable workspace arena.
//! [`Network::logits`] (and everything built on it: `predict`,
//! `probabilities`, `accuracy`, the attack harness's `predict_batch`)
//! transparently uses a cached plan and falls back to the per-layer
//! `forward` for layer stacks without compiled forms. Plans are
//! bit-identical to `forward(x, Mode::Eval)` for every multiplier kind
//! (property-tested in `tests/engine_equivalence.rs`).
//!
//! ## Cross-request batching
//!
//! On top of the engine, [`serve::BatchServer`] is a thread-based
//! micro-batching front end: concurrent callers submit single samples,
//! workers coalesce them (configurable batch size and flush deadline) and
//! execute them on one shared compiled plan, replying through
//! per-request channels with backpressure when the queue fills. Batching
//! never changes a sample's logits — bit-identity under any concurrent
//! schedule is part of the contract (see [`serve`]'s module docs) and is
//! property-tested in `tests/serve_conformance.rs`.

pub mod engine;
pub mod io;
pub mod layers;
pub mod loss;
pub mod net;
pub mod network;
pub mod optim;
pub mod quant;
pub mod serve;
pub mod snapshot;
pub mod train;
pub mod zoo;

pub use engine::InferencePlan;
pub use layers::{Cache, Layer, Mode};
pub use network::Network;
pub use serve::{BatchServer, ServeConfig, ServeError};
pub use snapshot::SnapshotError;
