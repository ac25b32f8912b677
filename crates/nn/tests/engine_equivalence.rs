//! Bit-exactness property tests for the serving engine.
//!
//! The contract under test: [`InferencePlan::predict_batch`] equals the
//! per-layer `Network::forward(Mode::Eval)` **to the last ULP** for every
//! [`MultiplierKind`] (and the native no-multiplier path), over random and
//! adversarial (NaN/Inf/denormal/negative-zero/extreme) inputs, across
//! architectures covering every compiled layer kind — and that repeated
//! calls reuse the workspace arena instead of allocating. The same holds for
//! gradients: `Network::input_gradient` and `class_gradient`, which run on
//! the plan's dX-only reverse sweep, equal the per-layer
//! `forward(Mode::Eval)` + `backward` input gradient bit for bit.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use da_arith::MultiplierKind;
use da_nn::engine::InferencePlan;
use da_nn::layers::{BatchNorm, Conv2d, Dense, Dropout, Flatten, MaxPool2d, QuantAct, Relu};
use da_nn::loss::softmax_cross_entropy;
use da_nn::zoo::{dq_convnet, lenet5, DqMode};
use da_nn::{Mode, Network};
use da_tensor::Tensor;

/// Adversarial values: specials, signed zeros, denormals, and extremes.
const SPECIALS: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    1e-40, // denormal
    f32::MAX,
    -f32::MAX,
    1.0,
];

/// A tensor mixing uniform values with adversarial specials.
fn adversarial_tensor(shape: &[usize], rng: &mut rand::rngs::StdRng, special_rate: f64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.gen_bool(special_rate) {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Assert plan output equals the per-layer eval forward bit for bit, for the
/// installed multiplier.
fn assert_plan_matches_forward(net: &Network, x: &Tensor, ctx: &str) {
    let want = net.forward(x, Mode::Eval).0;
    let plan = InferencePlan::compile(net, net.multiplier().cloned())
        .expect("built-in layers must compile");
    let got = plan.predict_batch(x);
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: element {i} differs: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Assert two tensors are equal bit for bit.
fn assert_bits_eq(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: element {i} differs: {g:?} vs {w:?}");
    }
}

/// Assert `Network::input_gradient` (loss and dX) and `class_gradient`
/// equal the per-layer `forward(Mode::Eval)` + `backward` input gradients
/// bit for bit.
fn assert_gradients_match_backward(net: &Network, x: &Tensor, ctx: &str) {
    let (logits, caches) = net.forward(x, Mode::Eval);
    let (n, k) = (logits.shape()[0], logits.shape()[1]);
    let labels: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % k).collect();
    let (want_loss, dlogits) = softmax_cross_entropy(&logits, &labels);
    let want_dx = net.backward(&caches, &dlogits).0;
    let class = k - 1;
    let mut seed = Tensor::zeros(&[n, k]);
    for i in 0..n {
        seed.data_mut()[i * k + class] = 1.0;
    }
    let want_class = net.backward(&caches, &seed).0;

    let (loss, dx) = net.input_gradient(x, &labels);
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{ctx}: loss {loss:?} vs {want_loss:?}");
    assert_bits_eq(&dx, &want_dx, &format!("{ctx}: input_gradient"));
    assert_bits_eq(&net.class_gradient(x, class), &want_class, &format!("{ctx}: class_gradient"));
}

/// Every multiplier kind plus the native (no-multiplier) path.
fn all_configs() -> Vec<Option<MultiplierKind>> {
    let mut v: Vec<Option<MultiplierKind>> = MultiplierKind::ALL.into_iter().map(Some).collect();
    v.push(None);
    v
}

/// A small CNN exercising conv (padded and unpadded), pooling, fused and
/// standalone ReLU placements, dropout, and two dense layers.
fn small_cnn(rng: &mut rand::rngs::StdRng) -> Network {
    Network::new("engine-prop-cnn")
        .push(Conv2d::new(2, 4, 3, 1, 1, rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 3, 3, 2, 0, rng))
        .push(Relu)
        .push(Dropout::new(0.3))
        .push(Flatten)
        .push(Dense::new(3 * 2 * 2, 8, rng))
        .push(Relu)
        .push(Dense::new(8, 4, rng))
}

/// An MLP with batch norm and activation quantization (warmed-up running
/// statistics), covering the remaining compiled layer kinds.
fn quantized_mlp(rng: &mut rand::rngs::StdRng) -> Network {
    let net = Network::new("engine-prop-mlp")
        .push(Flatten)
        .push(Dense::new(12, 10, rng).with_weight_bits(4))
        .push(BatchNorm::new(10))
        .push(Relu)
        .push(QuantAct::new(4))
        .push(Dense::new(10, 3, rng));
    // Warm the running statistics so eval-mode batch norm is nontrivial.
    let warm = Tensor::randn(&[16, 1, 3, 4], 1.0, rng);
    for _ in 0..3 {
        let _ = net.forward(&warm, Mode::Train { seed: 7 });
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The plan matches the per-layer forward bitwise for every multiplier
    /// kind on a CNN fed adversarial inputs.
    #[test]
    fn plan_matches_forward_on_adversarial_cnn_inputs(seed in any::<u64>(), n in 1usize..4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = small_cnn(&mut rng);
        let x = adversarial_tensor(&[n, 2, 10, 10], &mut rng, 0.15);
        for kind in all_configs() {
            net.set_multiplier(kind.map(|k| k.build()));
            assert_plan_matches_forward(&net, &x, &format!("cnn {kind:?} n={n}"));
        }
    }

    /// Batch-norm + quantized layers match bitwise too (weight quantization
    /// is snapshotted at compile time).
    #[test]
    fn plan_matches_forward_on_quantized_mlp(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = quantized_mlp(&mut rng);
        let x = adversarial_tensor(&[3, 1, 3, 4], &mut rng, 0.2);
        for kind in all_configs() {
            net.set_multiplier(kind.map(|k| k.build()));
            assert_plan_matches_forward(&net, &x, &format!("mlp {kind:?}"));
        }
    }

    /// Plan gradients equal the per-layer backward's bitwise for every
    /// multiplier kind on a CNN (padded and strided convs, fused and
    /// standalone ReLUs, pooling, dropout) fed adversarial inputs — and
    /// special-free ones, whose gradients are not swamped by NaN.
    #[test]
    fn plan_gradients_match_backward_on_adversarial_cnn_inputs(
        seed in any::<u64>(),
        n in 1usize..4,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = small_cnn(&mut rng);
        for rate in [0.0, 0.02, 0.15] {
            let x = adversarial_tensor(&[n, 2, 10, 10], &mut rng, rate);
            for kind in all_configs() {
                net.set_multiplier(kind.map(|k| k.build()));
                let ctx = format!("cnn {kind:?} n={n} specials={rate}");
                assert_gradients_match_backward(&net, &x, &ctx);
            }
        }
    }

    /// Batch norm has no plan gradient: the MLP's gradients take the
    /// per-layer path and match it.
    #[test]
    fn gradients_match_backward_on_quantized_mlp(seed in any::<u64>(), n in 1usize..4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = quantized_mlp(&mut rng);
        for rate in [0.0, 0.2] {
            let x = adversarial_tensor(&[n, 1, 3, 4], &mut rng, rate);
            for kind in all_configs() {
                net.set_multiplier(kind.map(|k| k.build()));
                let ctx = format!("mlp {kind:?} n={n} specials={rate}");
                assert_gradients_match_backward(&net, &x, &ctx);
            }
        }
    }
}

/// The MLP with its batch norm removed — Dense with DoReFa weights, ReLU
/// and the activation quantizer all on the plan's reverse sweep.
#[test]
fn plan_gradients_match_backward_through_quantizers() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(16);
    let mut net = Network::new("engine-prop-qmlp")
        .push(Flatten)
        .push(Dense::new(12, 10, &mut rng).with_weight_bits(4))
        .push(Relu)
        .push(QuantAct::new(4))
        .push(Dense::new(10, 3, &mut rng));
    for (n, rate) in [(1, 0.0), (2, 0.0), (3, 0.0), (1, 0.2), (2, 0.2), (3, 0.2)] {
        let x = adversarial_tensor(&[n, 1, 3, 4], &mut rng, rate);
        for kind in all_configs() {
            net.set_multiplier(kind.map(|k| k.build()));
            let ctx = format!("qmlp {kind:?} n={n} specials={rate}");
            assert_gradients_match_backward(&net, &x, &ctx);
        }
    }
}

/// Pooling fed raw values rather than ReLU outputs, so ties, `-inf`/NaN-only
/// windows and overlapping windows reach the gradient: max pooling on the
/// input itself, and a padded stride-2 conv into an overlapping pool.
#[test]
fn plan_gradients_match_backward_through_raw_pooling() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let pool_first = Network::new("pool-first")
        .push(MaxPool2d::new(3, 1))
        .push(Flatten)
        .push(Dense::new(16, 4, &mut rng));
    let strided = Network::new("strided-conv")
        .push(Conv2d::new(1, 2, 3, 2, 1, &mut rng))
        .push(MaxPool2d::new(2, 1))
        .push(Flatten)
        .push(Dense::new(2 * 2 * 2, 4, &mut rng));
    for mut net in [pool_first, strided] {
        for n in 1..4 {
            for rate in [0.0, 0.5, 0.9] {
                let x = adversarial_tensor(&[n, 1, 6, 6], &mut rng, rate);
                for kind in all_configs() {
                    net.set_multiplier(kind.map(|k| k.build()));
                    let ctx = format!("{} {kind:?} n={n} specials={rate}", net.name());
                    assert_gradients_match_backward(&net, &x, &ctx);
                }
            }
        }
    }
}

/// LeNet-5 at its native input size, for every multiplier kind and batches
/// of 1–3 (batches past the engine's parallel threshold split items across
/// workers).
#[test]
fn lenet_plan_gradients_match_backward() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let mut net = lenet5(10, &mut rng);
    for (n, rate) in [(1, 0.0), (2, 0.0), (3, 0.0), (1, 0.05), (2, 0.05), (3, 0.05)] {
        let x = adversarial_tensor(&[n, 1, 28, 28], &mut rng, rate);
        for kind in all_configs() {
            net.set_multiplier(kind.map(|k| k.build()));
            let ctx = format!("lenet {kind:?} n={n} specials={rate}");
            assert_gradients_match_backward(&net, &x, &ctx);
        }
    }
}

/// The paper's LeNet-5 at its native input size, batched past the engine's
/// parallel threshold: per-worker kernels and workspaces stay bit-exact.
#[test]
fn parallel_lenet_plan_is_bit_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut net = lenet5(10, &mut rng);
    let x = adversarial_tensor(&[6, 1, 28, 28], &mut rng, 0.05);
    for kind in [None, Some(MultiplierKind::AxFpm), Some(MultiplierKind::Bfloat16)] {
        net.set_multiplier(kind.map(|k| k.build()));
        assert_plan_matches_forward(&net, &x, &format!("lenet {kind:?}"));
    }
}

/// The DQ ConvNet (batch norm + full quantization, Appendix B) compiles and
/// matches bitwise.
#[test]
fn dq_convnet_plan_is_bit_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let net = dq_convnet(10, DqMode::Full, 4, &mut rng);
    let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut rng);
    assert_plan_matches_forward(&net, &x, "dq-full");
}

/// The DQ ConvNet's batch norm has no plan gradient: its gradients take the
/// per-layer fallback (the cached plan's workspaces stay untouched) and
/// match it.
#[test]
fn dq_convnet_gradients_fall_back_and_match() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let net = dq_convnet(10, DqMode::Full, 4, &mut rng);
    let x = Tensor::rand_uniform(&[2, 3, 32, 32], 0.0, 1.0, &mut rng);
    let plan = net.plan().expect("dq convnet compiles");
    let _ = plan.predict_batch(&x);
    let allocations = plan.workspace_allocations();
    assert_gradients_match_backward(&net, &x, "dq-full");
    assert_eq!(plan.workspace_allocations(), allocations, "batch norm takes the fallback");
}

/// Steady-state serving reuses the workspace arena: after the first call at
/// a given shape, repeated `predict_batch` calls perform no buffer
/// allocations (the debug allocation counter stops growing).
#[test]
fn repeated_predictions_reuse_workspaces() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut net = small_cnn(&mut rng);
    let x = Tensor::randn(&[4, 2, 10, 10], 1.0, &mut rng);
    for kind in [None, Some(MultiplierKind::AxFpm)] {
        net.set_multiplier(kind.map(|k| k.build()));
        let plan = InferencePlan::compile(&net, net.multiplier().cloned()).expect("compilable");
        let first = plan.predict_batch(&x);
        let after_warmup = plan.workspace_allocations();
        assert!(after_warmup > 0, "{kind:?}: first call must size the arena");
        for _ in 0..8 {
            assert_eq!(plan.predict_batch(&x), first, "{kind:?}: results must be stable");
        }
        assert_eq!(
            plan.workspace_allocations(),
            after_warmup,
            "{kind:?}: steady-state serving must not grow workspace buffers"
        );

        // Gradients run on the network's cached plan: the first call sizes
        // the tape and reverse-sweep buffers, repeated calls reuse them.
        let plan = net.plan().expect("compilable");
        let labels = [0, 1, 2, 3];
        let first = net.input_gradient(&x, &labels);
        let after_warmup = plan.workspace_allocations();
        assert!(after_warmup > 0, "{kind:?}: the first gradient must size its buffers");
        for _ in 0..8 {
            assert_eq!(net.input_gradient(&x, &labels), first, "{kind:?}: stable gradients");
        }
        assert_eq!(
            plan.workspace_allocations(),
            after_warmup,
            "{kind:?}: repeated gradients must not grow workspace buffers"
        );
    }
}

/// `Network::logits` rides the cached plan and stays coherent through
/// multiplier swaps and weight mutation (cache invalidation).
#[test]
fn network_logits_cache_invalidates_on_mutation() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut net = small_cnn(&mut rng);
    let x = Tensor::rand_uniform(&[2, 2, 10, 10], 0.0, 1.0, &mut rng);

    let exact = net.logits(&x);
    assert_eq!(exact, net.forward(&x, Mode::Eval).0, "plan path equals reference");

    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let approx = net.logits(&x);
    assert_ne!(exact, approx, "multiplier swap must recompile the plan");
    assert_eq!(approx, net.forward(&x, Mode::Eval).0);

    net.set_multiplier(None);
    assert_eq!(net.logits(&x), exact, "clearing the multiplier restores exact logits");

    // Mutating weights through params_mut must invalidate the cached plan.
    net.params_mut()[0].data_mut()[0] += 1.0;
    assert_eq!(net.logits(&x), net.forward(&x, Mode::Eval).0, "weight edits recompile");

    // Gradients ride the same cache: taken after a weight edit or a
    // multiplier swap, they use the new weights and multiplier.
    let labels = [1, 2];
    let before = net.input_gradient(&x, &labels);
    net.params_mut()[0].data_mut()[1] -= 2.0;
    let edited = net.input_gradient(&x, &labels);
    assert_ne!(edited, before, "weight edits reach the gradient");
    assert_gradients_match_backward(&net, &x, "after params_mut");
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let approx = net.input_gradient(&x, &labels);
    assert_ne!(approx, edited, "the multiplier swap reaches the gradient's forward");
    assert_gradients_match_backward(&net, &x, "after set_multiplier");
}

/// A dense layer with an all-zero weight row and zero biases, fed a huge
/// activation: the case a stale or too-tight row class gets wrong (a
/// normal-lane closed-form sweep packs a finite value for a product that
/// must be 0). For every configuration, the plan and the network's cached
/// plan equal the per-layer forward bit for bit, and output 0 is exactly 0.
#[test]
fn zero_weight_row_against_huge_input_stays_zero() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let mut net = Network::new("zero-row-dense").push(Dense::new(4, 6, &mut rng));
    {
        let mut params = net.params_mut();
        // Output 0's weights and every bias are 0; the other weights 0.75.
        for (i, w) in params[0].data_mut().iter_mut().enumerate() {
            *w = if i < 4 { 0.0 } else { 0.75 };
        }
        params[1].data_mut().fill(0.0);
    }
    let x = Tensor::from_vec(vec![1e38, 0.0, 0.0, 0.0], &[1, 4]);
    for kind in all_configs() {
        net.set_multiplier(kind.map(|k| k.build()));
        let ctx = format!("{kind:?}");
        let want = net.forward(&x, Mode::Eval).0;
        assert_eq!(want.data()[0], 0.0, "{ctx}: zero weights give a zero output");
        assert_plan_matches_forward(&net, &x, &ctx);
        assert_bits_eq(&net.logits(&x), &want, &format!("{ctx}: logits"));
    }
}
