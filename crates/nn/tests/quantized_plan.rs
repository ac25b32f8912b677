//! Conformance tests for int8 inference plans
//! ([`InferencePlan::compile_quantized`]) and quantized serving.
//!
//! The quantized plan's semantics are "the scalar multiplier over decoded
//! code pairs, accumulated in exact f32" — the kernel-level bit-identity
//! (LUT gather vs scalar multiplier) lives in
//! `da_arith/tests/quantized_conformance.rs`. Here we pin the *plan*:
//!
//! * on-grid single-layer stacks are **bit-identical** to the f32 plan for
//!   every multiplier kind (when every operand sits exactly on the code
//!   grid, quantization is lossless and the two plans must agree to the
//!   last ULP — this exercises LUT addressing, patch gathers, padding,
//!   tails, and accumulation order end to end);
//! * quantized logits stay close to the f32 plan's on random stacks;
//! * results are deterministic and independent of batch composition (the
//!   property the batch-serving contract rests on), including through a
//!   concurrently loaded [`BatchServer`] serving a quantized plan;
//! * steady-state serving does not allocate;
//! * stacks without a quantized form decline to compile.

use std::sync::{Arc, Barrier};
use std::time::Duration;

use da_arith::MultiplierKind;
use da_nn::engine::{InferencePlan, PlanPrecision};
use da_nn::layers::{Conv2d, Dense, Dropout, Flatten, Layer, MaxPool2d, Relu};
use da_nn::serve::{BatchServer, Pending, ServeConfig};
use da_nn::zoo::{dq_convnet, DqMode};
use da_nn::Network;
use da_tensor::parallel::par_for;
use da_tensor::Tensor;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A tensor of integers whose observed range is exactly `[-128, 127]`, so
/// `QuantParams::from_range` derives scale 1 / zero-point 128 and every
/// value sits exactly on the code grid.
fn on_grid_weights(shape: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    assert!(n >= 2);
    let mut data: Vec<f32> = (0..n).map(|_| rng.gen_range(-128i32..=127) as f32).collect();
    data[0] = -128.0;
    data[1] = 127.0;
    Tensor::from_vec(data, shape)
}

/// An input batch of integers spanning exactly `[0, 255]` (scale 1,
/// zero-point 0).
fn on_grid_input(shape: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let mut data: Vec<f32> = (0..n).map(|_| rng.gen_range(0i32..=255) as f32).collect();
    data[0] = 0.0;
    data[1] = 255.0;
    Tensor::from_vec(data, shape)
}

fn assert_bit_equal(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x:?} vs {y:?}");
    }
}

/// When every operand is exactly representable, the int8 plan must equal
/// the f32 plan bit for bit: the LUT entry *is* `multiply(w, x)` and the
/// adds run in the same ascending-k order. One conv (odd spatial size and
/// padding exercise the gather and the lane tails) and one dense layer,
/// for every multiplier kind plus native.
#[test]
fn on_grid_single_layer_plans_are_bit_exact_to_f32() {
    let mut r = rng(11);
    for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
        let mult = kind.map(|k| k.build());

        // Conv: cout=3 (row tail), 9x9 input, pad=1 (zero taps), stride 2.
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut r);
        conv.params_mut()[0]
            .data_mut()
            .copy_from_slice(on_grid_weights(&[3 * 2 * 3 * 3], &mut r).data());
        conv.params_mut()[1].data_mut().copy_from_slice(&[3.0, -7.0, 11.0]);
        let mut net = Network::new("on-grid-conv").push(conv);
        net.set_multiplier(mult.clone());
        let x = on_grid_input(&[2, 2, 9, 9], &mut r);
        let f32_plan = InferencePlan::compile(&net, mult.clone()).expect("compilable");
        let q_plan = InferencePlan::compile_quantized(&net, mult.clone(), &x).expect("quantizable");
        assert_eq!(q_plan.precision(), PlanPrecision::Int8);
        assert_eq!(f32_plan.precision(), PlanPrecision::F32);
        assert_bit_equal(
            &q_plan.predict_batch(&x),
            &f32_plan.predict_batch(&x),
            &format!("conv {kind:?}"),
        );

        // Dense: out=5 (ragged j tail in every kernel).
        let mut fc = Dense::new(7, 5, &mut r);
        fc.params_mut()[0].data_mut().copy_from_slice(on_grid_weights(&[5 * 7], &mut r).data());
        fc.params_mut()[1].data_mut().copy_from_slice(&[1.0, 0.0, -2.0, 3.0, 5.0]);
        let mut net = Network::new("on-grid-dense").push(fc);
        net.set_multiplier(mult.clone());
        let x = on_grid_input(&[3, 7], &mut r);
        let f32_plan = InferencePlan::compile(&net, mult.clone()).expect("compilable");
        let q_plan = InferencePlan::compile_quantized(&net, mult.clone(), &x).expect("quantizable");
        assert_bit_equal(
            &q_plan.predict_batch(&x),
            &f32_plan.predict_batch(&x),
            &format!("dense {kind:?}"),
        );
    }
}

fn tiny_cnn(seed: u64) -> Network {
    let mut r = rng(seed);
    Network::new("quant-tiny")
        .push(Conv2d::new(1, 4, 3, 1, 1, &mut r))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 6, 3, 1, 0, &mut r))
        .push(Relu)
        .push(Dropout::new(0.5))
        .push(Flatten)
        .push(Dense::new(6 * 3 * 3, 8, &mut r))
        .push(Relu)
        .push(Dense::new(8, 5, &mut r))
}

/// Quantized logits track the f32 plan on random stacks. The tolerance is
/// per multiplier: native products respond smoothly to a one-code operand
/// nudge, but the AMA5 product is `1.f_a · 2^(ea+eb-126)` — a nudge that
/// crosses an operand's exponent boundary flips the product by 2×, so
/// Ax-FPM amplifies quantization noise discontinuously (that sensitivity
/// *is* the paper's defense; accuracy preservation is asserted separately
/// on a trained LeNet in `tests/quantized_serving.rs`).
#[test]
fn quantized_logits_stay_close_to_f32_plan() {
    for (kind, tol) in [
        (None, 0.15f32),
        (Some(MultiplierKind::AxFpm), 0.40),
        (Some(MultiplierKind::Bfloat16), 0.20),
    ] {
        let mut net = tiny_cnn(21);
        let mult = kind.map(|k: MultiplierKind| k.build());
        net.set_multiplier(mult.clone());
        let mut r = rng(22);
        let calibration = Tensor::rand_uniform(&[16, 1, 10, 10], 0.0, 1.0, &mut r);
        let x = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
        let f32_plan = InferencePlan::compile(&net, mult.clone()).expect("compilable");
        let q_plan =
            InferencePlan::compile_quantized(&net, mult, &calibration).expect("quantizable");
        let want = f32_plan.predict_batch(&x);
        let got = q_plan.predict_batch(&x);
        let spread = want.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-3);
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (g - w).abs() <= tol * spread + 0.02,
                "{kind:?} elem {i}: quantized {g} vs f32 {w} (spread {spread})"
            );
        }
    }
}

/// A sample's quantized logits must not depend on its batch: per-item runs
/// equal the batched run bitwise (the serving contract's foundation), and
/// repeated runs are deterministic.
#[test]
fn quantized_plan_is_deterministic_and_batch_independent() {
    let mut net = tiny_cnn(31);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(32);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("quantizable");
    let x = Tensor::rand_uniform(&[6, 1, 10, 10], 0.0, 1.0, &mut r);
    let batched = plan.predict_batch(&x);
    assert_bit_equal(&plan.predict_batch(&x), &batched, "repeat determinism");
    for i in 0..6 {
        let single = plan.predict_batch(&Tensor::stack(&[x.batch_item(i)]));
        for (j, (g, w)) in single.data().iter().zip(&batched.data()[i * 5..(i + 1) * 5]).enumerate()
        {
            assert_eq!(g.to_bits(), w.to_bits(), "item {i} elem {j}");
        }
    }
    assert_eq!(plan.predict(&x).len(), 6);
}

/// Steady-state quantized serving performs no workspace allocation.
#[test]
fn quantized_workspaces_are_reused_across_calls() {
    let mut net = tiny_cnn(41);
    net.set_multiplier(Some(MultiplierKind::Bfloat16.build()));
    let mut r = rng(42);
    let calibration = Tensor::rand_uniform(&[4, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("quantizable");
    let x = Tensor::rand_uniform(&[2, 1, 10, 10], 0.0, 1.0, &mut r);
    let _ = plan.predict_batch(&x);
    let after_first = plan.workspace_allocations();
    assert!(after_first > 0, "first call must size the arena");
    for _ in 0..5 {
        let _ = plan.predict_batch(&x);
    }
    assert_eq!(plan.workspace_allocations(), after_first, "steady state must not allocate");
}

/// A stack ending in pooling gets an explicit decode step and still serves.
#[test]
fn stack_ending_in_pool_decodes_to_f32() {
    let mut r = rng(51);
    let net = Network::new("pool-end")
        .push(Conv2d::new(1, 2, 3, 1, 1, &mut r))
        .push(Relu)
        .push(MaxPool2d::new(2, 2));
    let x = Tensor::rand_uniform(&[2, 1, 8, 8], 0.0, 1.0, &mut r);
    let f32_plan = InferencePlan::compile(&net, None).expect("compilable");
    let q_plan = InferencePlan::compile_quantized(&net, None, &x).expect("quantizable");
    let want = f32_plan.predict_batch(&x);
    let got = q_plan.predict_batch(&x);
    assert_eq!(got.shape(), want.shape());
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!((g - w).abs() < 0.1, "elem {i}: {g} vs {w}");
    }
}

/// Concurrently served quantized logits are bit-identical to a serial run
/// of the same plan — the batch-server contract carries over to int8.
#[test]
fn quantized_serving_is_bit_identical_under_concurrency() {
    let mut net = tiny_cnn(61);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(62);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("quantizable");
    let server = BatchServer::from_plan(
        Arc::new(
            InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
                .expect("quantizable"),
        ),
        ServeConfig {
            workers: 2,
            max_batch: 3,
            flush_deadline: Duration::from_micros(100),
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let samples: Vec<Tensor> =
        (0..24).map(|_| Tensor::rand_uniform(&[1, 10, 10], 0.0, 1.0, &mut r)).collect();
    let served: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let server = &server;
                let samples = &samples;
                scope.spawn(move || {
                    let pending: Vec<Pending> = (0..6)
                        .map(|j| server.submit(&samples[t * 6 + j]).expect("accepting"))
                        .collect();
                    pending.into_iter().map(|p| p.wait().expect("served")).collect::<Vec<Tensor>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client")).collect()
    });
    for (i, row) in served.iter().enumerate() {
        let want = plan.predict_batch(&Tensor::stack(&[samples[i].clone()]));
        for (j, (g, w)) in row.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i} elem {j}");
        }
    }
    assert!(server.stats().items >= 24);
}

/// Stacks with no quantized form (batch norm, DoReFa activation
/// quantizers, opaque layers) decline to compile, like the f32 plan does
/// for uncompilable stacks.
#[test]
fn unquantizable_stacks_decline() {
    let mut r = rng(71);
    let dq = dq_convnet(10, DqMode::Full, 4, &mut r);
    let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut r);
    assert!(InferencePlan::compile(&dq, None).is_some(), "dq compiles in f32");
    assert!(InferencePlan::compile_quantized(&dq, None, &x).is_none(), "but not to int8");

    struct Opaque;
    impl Layer for Opaque {
        fn name(&self) -> &'static str {
            "opaque"
        }
        fn forward(&self, x: &Tensor, _mode: da_nn::Mode) -> (Tensor, da_nn::Cache) {
            (x.clone(), da_nn::Cache::none())
        }
        fn backward(&self, _cache: &da_nn::Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
            (grad.clone(), Vec::new())
        }
    }
    let net = Network::new("opaque").push(Opaque);
    let x = Tensor::zeros(&[1, 3]);
    assert!(InferencePlan::compile_quantized(&net, None, &x).is_none());
}

/// A multiplier mismatch declines exactly like the f32 compiler.
#[test]
fn quantized_multiplier_mismatch_declines() {
    let mut r = rng(81);
    let mut net = Network::new("mismatch").push(Dense::new(4, 3, &mut r));
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let x = Tensor::rand_uniform(&[2, 4], 0.0, 1.0, &mut r);
    assert!(InferencePlan::compile_quantized(&net, None, &x).is_none());
    assert!(InferencePlan::compile_quantized(&net, Some(MultiplierKind::Bfloat16.build()), &x)
        .is_none());
    assert!(InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &x).is_some());
    let _ = Arc::clone(net.multiplier().expect("installed"));
}

/// A tensor of integers on the **int4 grid**: values in `[-7, 8]` with both
/// endpoints present, so the 16-code quantizer
/// (`QuantParams::from_range_codes(lo, hi, CODES4)`) derives scale 1 /
/// zero-point 7 and every weight decodes exactly.
fn on_grid4_weights(shape: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    assert!(n >= 2);
    let mut data: Vec<f32> = (0..n).map(|_| rng.gen_range(-7i32..=8) as f32).collect();
    data[0] = -7.0;
    data[1] = 8.0;
    Tensor::from_vec(data, shape)
}

/// When weights sit exactly on the 16-code grid (and activations on the
/// 256-code grid), the int4 plan must pick int4 for every layer and equal
/// the f32 plan bit for bit — the shuffle-GEMM analogue of
/// [`on_grid_single_layer_plans_are_bit_exact_to_f32`], for every
/// multiplier kind plus native.
#[test]
fn on_grid_int4_plans_pick_int4_and_are_bit_exact_to_f32() {
    let mut r = rng(101);
    for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
        let mult = kind.map(|k| k.build());

        // Conv: cout=3 (ragged shuffle tail), pad=1, stride 2.
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut r);
        conv.params_mut()[0]
            .data_mut()
            .copy_from_slice(on_grid4_weights(&[3 * 2 * 3 * 3], &mut r).data());
        conv.params_mut()[1].data_mut().copy_from_slice(&[3.0, -7.0, 11.0]);
        let mut net = Network::new("on-grid4-conv").push(conv);
        net.set_multiplier(mult.clone());
        let x = on_grid_input(&[2, 2, 9, 9], &mut r);
        let f32_plan = InferencePlan::compile(&net, mult.clone()).expect("compilable");
        let q4_plan =
            InferencePlan::compile_quantized_int4(&net, mult.clone(), &x).expect("quantizable");
        assert_eq!(q4_plan.precision(), PlanPrecision::Int4Weights);
        assert_eq!(q4_plan.int4_layer_mix(), (1, 0), "conv {kind:?}: int4 chosen");
        assert_bit_equal(
            &q4_plan.predict_batch(&x),
            &f32_plan.predict_batch(&x),
            &format!("conv4 {kind:?}"),
        );

        // Dense: out=5 (ragged j tail on every shuffle path).
        let mut fc = Dense::new(7, 5, &mut r);
        fc.params_mut()[0].data_mut().copy_from_slice(on_grid4_weights(&[5 * 7], &mut r).data());
        fc.params_mut()[1].data_mut().copy_from_slice(&[1.0, 0.0, -2.0, 3.0, 5.0]);
        let mut net = Network::new("on-grid4-dense").push(fc);
        net.set_multiplier(mult.clone());
        let x = on_grid_input(&[3, 7], &mut r);
        let f32_plan = InferencePlan::compile(&net, mult.clone()).expect("compilable");
        let q4_plan =
            InferencePlan::compile_quantized_int4(&net, mult.clone(), &x).expect("quantizable");
        assert_eq!(q4_plan.int4_layer_mix(), (1, 0), "dense {kind:?}: int4 chosen");
        assert_bit_equal(
            &q4_plan.predict_batch(&x),
            &f32_plan.predict_batch(&x),
            &format!("dense4 {kind:?}"),
        );
    }
}

/// A layer whose weight mass collapses between int4 codes must fall back to
/// the int8 gather: 20 weights of 0.03 against a range pinned to `[0, 1]`
/// all snap to code 0 (scale 1/15), losing the entire output — the
/// calibration gap blows past the threshold and the compiler keeps int8 for
/// that layer, while a well-spread layer in the same stack stays int4.
#[test]
fn off_grid_weight_mass_falls_back_to_int8_per_layer() {
    let mut r = rng(111);
    // Layer 1: all weights collapse under int4 (0.03·15 rounds to code 0);
    // the 1.0 weight pins the observed range so the scale cannot adapt.
    let mut bad = Dense::new(20, 2, &mut r);
    {
        let mut params = bad.params_mut();
        let w = params[0].data_mut();
        w[..20].copy_from_slice(&[0.03; 20]);
        w[20..].fill(0.0);
        w[20] = 1.0;
        params[1].data_mut().fill(0.0);
    }
    let net = Network::new("int4-fallback").push(bad);
    let x = on_grid_input(&[4, 20], &mut r).map(|v| v / 255.0);
    let plan = InferencePlan::compile_quantized_int4(&net, None, &x).expect("quantizable");
    assert_eq!(plan.precision(), PlanPrecision::Int4Weights);
    assert_eq!(plan.int4_layer_mix(), (0, 1), "collapsed layer must keep int8");
    // The fallback layer still serves like the plain int8 plan.
    let int8 = InferencePlan::compile_quantized(&net, None, &x).expect("quantizable");
    assert_bit_equal(&plan.predict_batch(&x), &int8.predict_batch(&x), "fallback serving");

    // On-grid weights in the same shape stay int4.
    let mut good = Dense::new(20, 2, &mut r);
    good.params_mut()[0].data_mut().copy_from_slice(on_grid4_weights(&[2 * 20], &mut r).data());
    good.params_mut()[1].data_mut().fill(0.0);
    let net = Network::new("int4-kept").push(good);
    let x = on_grid_input(&[4, 20], &mut r);
    let plan = InferencePlan::compile_quantized_int4(&net, None, &x).expect("quantizable");
    assert_eq!(plan.int4_layer_mix(), (1, 0), "well-spread layer keeps int4");
}

/// The int4 plan keeps the quantized serving contract on a mixed stack:
/// logits track the f32 plan, results are deterministic and batch-
/// independent, and steady-state serving does not allocate.
#[test]
fn int4_plan_keeps_the_serving_contract() {
    let mut net = tiny_cnn(121);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(122);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized_int4(&net, net.multiplier().cloned(), &calibration)
        .expect("quantizable");
    let (int4, int8) = plan.int4_layer_mix();
    assert_eq!(int4 + int8, 4, "all four GEMM layers quantize one way or the other");
    let x = Tensor::rand_uniform(&[6, 1, 10, 10], 0.0, 1.0, &mut r);

    let f32_plan = InferencePlan::compile(&net, net.multiplier().cloned()).expect("compilable");
    let want = f32_plan.predict_batch(&x);
    let got = plan.predict_batch(&x);
    let spread = want.data().iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-3);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert!(
            (g - w).abs() <= 0.6 * spread + 0.02,
            "elem {i}: int4 {g} vs f32 {w} (spread {spread})"
        );
    }

    assert_bit_equal(&plan.predict_batch(&x), &got, "repeat determinism");
    for i in 0..6 {
        let single = plan.predict_batch(&Tensor::stack(&[x.batch_item(i)]));
        for (j, (g, w)) in single.data().iter().zip(&got.data()[i * 5..(i + 1) * 5]).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "item {i} elem {j}");
        }
    }

    let after_first = plan.workspace_allocations();
    for _ in 0..5 {
        let _ = plan.predict_batch(&x);
    }
    assert_eq!(plan.workspace_allocations(), after_first, "steady state must not allocate");
}

/// Regression input for the steady-state allocation check: the warm-up
/// call runs while another thread holds the process-wide parallel region,
/// so it executes inline on one worker, and the later uncontended calls fan
/// out across every CPU. The first call must already have pooled a sized
/// workspace for each worker `predict_batch` may use, whatever the region
/// state was, or those later calls allocate.
#[test]
fn warmup_under_a_held_parallel_region_sizes_every_worker() {
    let mut net = tiny_cnn(121);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(122);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let mult = net.multiplier().cloned();
    let plans = [
        InferencePlan::compile(&net, mult.clone()).expect("f32 plan"),
        InferencePlan::compile_quantized(&net, mult.clone(), &calibration).expect("int8 plan"),
        InferencePlan::compile_quantized_int4(&net, mult, &calibration).expect("int4 plan"),
    ];
    // Six items clear the plan's parallel threshold.
    let x = Tensor::rand_uniform(&[6, 1, 10, 10], 0.0, 1.0, &mut r);
    for plan in &plans {
        let (entered, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|s| {
            // Item 0 parks inside the region until the warm-up is done (on
            // one CPU `par_for` runs inline and holds nothing, harmlessly).
            s.spawn(|| {
                par_for(2, |i| {
                    if i == 0 {
                        entered.wait();
                        release.wait();
                    }
                })
            });
            entered.wait();
            let _ = plan.predict_batch(&x);
            release.wait();
        });
        let after_warmup = plan.workspace_allocations();
        for _ in 0..5 {
            let _ = plan.predict_batch(&x);
        }
        assert_eq!(
            plan.workspace_allocations(),
            after_warmup,
            "{:?}: steady state must not allocate",
            plan.precision()
        );
    }
}

/// Served int4 logits are bit-identical to a serial run of the same
/// mixed-precision plan — the batching contract carries over to int4.
#[test]
fn int4_serving_is_bit_identical_to_the_plan() {
    let mut net = tiny_cnn(141);
    net.set_multiplier(Some(MultiplierKind::Heap.build()));
    let mut r = rng(142);
    let calibration = Tensor::rand_uniform(&[6, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized_int4(&net, net.multiplier().cloned(), &calibration)
        .expect("quantizable");
    let server = BatchServer::from_plan(
        Arc::new(
            InferencePlan::compile_quantized_int4(&net, net.multiplier().cloned(), &calibration)
                .expect("quantizable"),
        ),
        ServeConfig {
            workers: 2,
            max_batch: 3,
            flush_deadline: Duration::from_micros(100),
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let samples: Vec<Tensor> =
        (0..8).map(|_| Tensor::rand_uniform(&[1, 10, 10], 0.0, 1.0, &mut r)).collect();
    let pending: Vec<Pending> =
        samples.iter().map(|s| server.submit(s).expect("accepting")).collect();
    for (i, p) in pending.into_iter().enumerate() {
        let row = p.wait().expect("served");
        let want = plan.predict_batch(&Tensor::stack(&[samples[i].clone()]));
        for (j, (g, w)) in row.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "sample {i} elem {j}");
        }
    }
    assert!(server.stats().items >= 8);
}

/// Layers with identical quantizer pairs share one product-table `Arc`
/// instead of building duplicate 256×256 (or 256×16) tables: two identity
/// dense layers preserve the activation range exactly, so their
/// (activation, weight) parameter pairs — and therefore their tables —
/// coincide.
#[test]
fn identical_quantizer_pairs_share_one_product_lut() {
    let mut r = rng(131);
    let identity = |r: &mut rand::rngs::StdRng| {
        let mut fc = Dense::new(4, 4, r);
        let mut params = fc.params_mut();
        let w = params[0].data_mut();
        w.fill(0.0);
        for i in 0..4 {
            w[i * 4 + i] = 1.0;
        }
        params[1].data_mut().fill(0.0);
        drop(params);
        fc
    };
    let net = Network::new("shared-lut").push(identity(&mut r)).push(identity(&mut r));
    // Inputs spanning exactly [0, 1]: the identity layers preserve the
    // range, so both layers calibrate to the same activation quantizer.
    let mut x = Tensor::rand_uniform(&[5, 4], 0.0, 1.0, &mut r);
    x.data_mut()[0] = 0.0;
    x.data_mut()[1] = 1.0;

    let int8 = InferencePlan::compile_quantized(&net, None, &x).expect("quantizable");
    assert_eq!(int8.product_lut_sharing(), (2, 1), "int8: one table for both layers");

    let int4 = InferencePlan::compile_quantized_int4(&net, None, &x).expect("quantizable");
    assert_eq!(int4.int4_layer_mix(), (2, 0), "identity weights sit on the int4 grid");
    assert_eq!(int4.product_lut_sharing(), (2, 1), "int4: one table for both layers");

    // Distinct ranges must NOT share: scaling the second layer's weights
    // changes its activation range and weight params.
    let mut scaled = identity(&mut r);
    for v in scaled.params_mut()[0].data_mut().iter_mut() {
        *v *= 2.0;
    }
    let net = Network::new("distinct-lut").push(identity(&mut r)).push(scaled);
    let int8 = InferencePlan::compile_quantized(&net, None, &x).expect("quantizable");
    assert_eq!(int8.product_lut_sharing(), (2, 2), "distinct pairs keep distinct tables");
}

/// Calibration batches validate like serving inputs.
#[test]
#[should_panic(expected = "input channel mismatch")]
fn calibration_validates_like_forward() {
    let mut r = rng(91);
    let net = Network::new("bad").push(Conv2d::new(3, 4, 3, 1, 0, &mut r));
    let x = Tensor::zeros(&[1, 2, 8, 8]);
    let _ = InferencePlan::compile_quantized(&net, None, &x);
}
