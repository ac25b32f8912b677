//! Plan-cache invalidation edges, exercised against live serving state.
//!
//! `Network` caches a compiled [`InferencePlan`] and invalidates it on
//! `set_multiplier`, `params_mut`, and training-mode forwards. A
//! [`BatchServer`] serves the plan `Arc` it was given (here the network's
//! own cached plan); that snapshot intentionally does not follow later
//! mutations, and `!Arc::ptr_eq(&served, &net.plan())` is how the
//! divergence is detected. Each test here drives one invalidation edge
//! while a server is live and asserts all three observable facts: the
//! network recompiles, the server keeps serving the old snapshot
//! bit-identically, and staleness is reported.

use std::sync::Arc;
use std::time::Duration;

use da_arith::MultiplierKind;
use da_nn::layers::{BatchNorm, Conv2d, Dense, Flatten, MaxPool2d, Relu};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::{InferencePlan, Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("invalidation-cnn")
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Flatten)
        .push(Dense::new(3 * 4 * 4, 5, &mut rng))
}

fn bn_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("invalidation-bn")
        .push(Conv2d::new(1, 2, 3, 1, 1, &mut rng))
        .push(BatchNorm::new(2))
        .push(Relu)
        .push(Flatten)
        .push(Dense::new(2 * 8 * 8, 4, &mut rng))
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 4,
        flush_deadline: Duration::ZERO,
        queue_capacity: 8,
        ..ServeConfig::default()
    }
}

fn sample(seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[1, 1, 8, 8], 0.0, 1.0, &mut rng)
}

/// Whether `net` has moved on from the `served` plan: its cached plan is
/// a different `Arc` (every invalidation recompiles into a new one).
fn moved_on(served: &Arc<InferencePlan>, net: &Network) -> bool {
    !Arc::ptr_eq(served, &net.plan().expect("compiles"))
}

/// Bit equality of two logits tensors.
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn set_multiplier_invalidates_a_live_plan_and_strands_server_replicas() {
    let mut net = tiny_cnn(1);
    let x = sample(2);
    let plan_before = net.plan().expect("compiles");
    let exact_logits = net.logits(&x);
    let server = BatchServer::from_plan(plan_before.clone(), serve_cfg());
    assert!(!moved_on(&plan_before, &net), "fresh server must not be stale");

    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));

    // The network recompiled: new plan object, new (approximate) logits.
    let plan_after = net.plan().expect("still compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let approx_logits = net.logits(&x);
    assert!(!bits_eq(&exact_logits, &approx_logits), "multiplier swap must change logits");

    // The server still serves the exact snapshot, bit for bit — and says so.
    assert!(moved_on(&plan_before, &net), "multiplier swap must flag the server stale");
    let served = server.logits(&x.batch_item(0)).expect("stale server keeps serving");
    assert_eq!(served.data(), exact_logits.data(), "snapshot must not drift");

    // Rebuilding resolves the staleness and serves the new datapath.
    let rebuilt = BatchServer::from_plan(plan_after.clone(), serve_cfg());
    assert!(!moved_on(&plan_after, &net));
    let reserved = rebuilt.logits(&x.batch_item(0)).expect("serving");
    assert_eq!(reserved.data(), approx_logits.data());
}

#[test]
fn params_mut_invalidates_a_live_plan_and_strands_server_replicas() {
    let mut net = tiny_cnn(3);
    let x = sample(4);
    let before = net.logits(&x);
    let plan_before = net.plan().expect("compiles");
    let server = BatchServer::from_plan(plan_before.clone(), serve_cfg());

    // Touch one weight through the mutable-params API (what optimizers use).
    {
        let mut params = net.params_mut();
        params[0].data_mut()[0] += 1.0;
    }

    assert!(moved_on(&plan_before, &net), "weight mutation must flag the server stale");
    let plan_after = net.plan().expect("compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let after = net.logits(&x);
    assert!(!bits_eq(&before, &after), "weight mutation must change logits");

    // Server replicas still carry the compile-time weights.
    let served = server.logits(&x.batch_item(0)).expect("serving");
    assert_eq!(served.data(), before.data(), "server must serve the old weights");
}

#[test]
fn training_forward_invalidates_a_live_plan_via_running_statistics() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let net = bn_cnn(5);
    let x = Tensor::rand_uniform(&[4, 1, 8, 8], 0.0, 1.0, &mut rng);
    let eval_before = net.logits(&x);
    let plan_before = net.plan().expect("compiles");
    let server = BatchServer::from_plan(plan_before.clone(), serve_cfg());

    // A training-mode forward updates batch-norm running statistics, which
    // compiled plans snapshot — it must invalidate even without `&mut`.
    let _ = net.forward(&x, Mode::Train { seed: 7 });

    assert!(moved_on(&plan_before, &net), "running-stat update must flag the server stale");
    let plan_after = net.plan().expect("compiles");
    assert!(!Arc::ptr_eq(&plan_before, &plan_after), "plan cache must recompile");
    let eval_after = net.logits(&x);
    assert!(
        !bits_eq(&eval_before, &eval_after),
        "updated running statistics must change eval logits"
    );

    // The server still serves the pre-training statistics.
    let served = server.logits(&x.batch_item(0)).expect("serving");
    let want = &eval_before.data()[..eval_before.shape()[1]];
    assert_eq!(served.data(), want, "server must serve the snapshot statistics");
}

#[test]
fn plan_cache_recompiles_across_all_invalidation_edges() {
    let mut net = tiny_cnn(11);
    let mut last = net.plan().expect("compiles");
    let recompiled = |net: &Network, tag: &str, last: &mut Arc<InferencePlan>| {
        assert!(moved_on(last, net), "{tag} must recompile the plan");
        *last = net.plan().expect("compiles");
    };

    net.set_multiplier(Some(MultiplierKind::Bfloat16.build()));
    recompiled(&net, "set_multiplier(Some)", &mut last);
    net.set_multiplier(None);
    recompiled(&net, "set_multiplier(None)", &mut last);
    let _ = net.params_mut();
    recompiled(&net, "params_mut", &mut last);
    let x = sample(12);
    let _ = net.forward(&x, Mode::Train { seed: 1 });
    recompiled(&net, "training forward", &mut last);

    // Read-only serving does NOT invalidate.
    let _ = net.logits(&x);
    let _ = net.plan();
    let _ = net.forward(&x, Mode::Eval);
    assert!(!moved_on(&last, &net), "read paths must not invalidate");
}

#[test]
fn eval_forward_keeps_server_fresh() {
    let net = tiny_cnn(13);
    let plan = net.plan().expect("compiles");
    let server = BatchServer::from_plan(plan.clone(), serve_cfg());
    let x = sample(14);
    let _ = net.forward(&x, Mode::Eval);
    let _ = net.logits(&x);
    let _ = server.logits(&x.batch_item(0)).expect("serving");
    assert!(!moved_on(&plan, &net), "eval-mode inference must not flag staleness");
}
